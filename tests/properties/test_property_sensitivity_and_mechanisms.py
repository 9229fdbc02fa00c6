"""Property-based tests for sensitivities, mechanisms, and query evaluation."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mechanisms.exponential import exponential_mechanism_probabilities
from repro.mechanisms.truncated_laplace import sample_truncated_laplace, truncation_radius
from repro.queries.linear import ProductQuery, TableQuery
from repro.relational.neighbors import random_neighbor
from repro.sensitivity.local import local_sensitivity
from repro.sensitivity.residual import residual_sensitivity
from tests.properties.test_property_relational import two_table_instances


class TestSensitivityProperties:
    @given(two_table_instances(), st.sampled_from([0.1, 0.3, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_residual_dominates_local(self, instance, beta):
        assert residual_sensitivity(instance, beta) >= local_sensitivity(instance) - 1e-9

    @given(
        two_table_instances(),
        st.sampled_from([0.2, 0.6]),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_residual_is_beta_smooth(self, instance, beta, seed):
        rng = np.random.default_rng(seed)
        neighbor = random_neighbor(instance, rng)
        first = residual_sensitivity(instance, beta)
        second = residual_sensitivity(neighbor, beta)
        assert second <= first * math.exp(beta) + 1e-9
        assert first <= second * math.exp(beta) + 1e-9

    @given(two_table_instances())
    @settings(max_examples=30, deadline=None)
    def test_residual_monotone_in_beta(self, instance):
        values = [residual_sensitivity(instance, beta) for beta in (0.1, 0.4, 1.2)]
        assert values[0] >= values[1] - 1e-9
        assert values[1] >= values[2] - 1e-9


class TestMechanismProperties:
    @given(
        st.floats(0.1, 3.0),
        st.floats(1e-8, 0.4),
        st.floats(0.5, 50.0),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_truncated_laplace_support(self, epsilon, delta, sensitivity, seed):
        radius = truncation_radius(epsilon, delta, sensitivity)
        rng = np.random.default_rng(seed)
        samples = sample_truncated_laplace(sensitivity, epsilon, delta, size=50, rng=rng)
        assert np.all(samples >= 0.0)
        assert np.all(samples <= 2.0 * radius + 1e-9)

    @given(st.floats(0.1, 3.0), st.floats(1e-8, 0.4), st.floats(0.5, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_truncation_radius_scales_linearly_in_sensitivity(
        self, epsilon, delta, sensitivity
    ):
        unit = truncation_radius(epsilon, delta, 1.0)
        scaled = truncation_radius(epsilon, delta, sensitivity)
        assert scaled == (
            unit * sensitivity
        ) or abs(scaled - unit * sensitivity) < 1e-6 * max(1.0, scaled)

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=20),
        st.floats(0.05, 4.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_exponential_mechanism_is_a_distribution(self, scores, epsilon):
        probabilities = exponential_mechanism_probabilities(np.array(scores), epsilon)
        assert probabilities.min() >= 0
        assert abs(probabilities.sum() - 1.0) < 1e-9

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=10),
        st.floats(0.05, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_exponential_mechanism_bounded_ratio(self, scores, epsilon):
        """Likelihood ratios between candidates are bounded by exp(ε·Δscore/2)."""
        probabilities = exponential_mechanism_probabilities(np.array(scores), epsilon)
        for i in range(len(scores)):
            for j in range(len(scores)):
                expected = math.exp(epsilon * (scores[i] - scores[j]) / 2.0)
                assert probabilities[i] / probabilities[j] <= expected * (1 + 1e-9)


class TestQueryProperties:
    @given(two_table_instances(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_query_answers_bounded_by_join_size(self, instance, seed):
        """|q(I)| ≤ count(I) because all weights lie in [-1, 1]."""
        from repro.relational.join import join_size

        rng = np.random.default_rng(seed)
        query = instance.query
        product = ProductQuery(
            query,
            [
                TableQuery(schema.name, rng.uniform(-1, 1, size=schema.shape))
                for schema in query.relations
            ],
        )
        assert abs(product.evaluate(instance)) <= join_size(instance) + 1e-9

    @given(two_table_instances(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_query_sensitivity_bounded_by_local_sensitivity(self, instance, seed):
        """|q(I) − q(I')| ≤ LS_count(I) for any neighbour and any linear query."""
        rng = np.random.default_rng(seed)
        query = instance.query
        product = ProductQuery(
            query,
            [
                TableQuery(schema.name, rng.uniform(-1, 1, size=schema.shape))
                for schema in query.relations
            ],
        )
        neighbor = random_neighbor(instance, rng)
        difference = abs(product.evaluate(instance) - product.evaluate(neighbor))
        bound = max(local_sensitivity(instance), local_sensitivity(neighbor))
        assert difference <= bound + 1e-9
