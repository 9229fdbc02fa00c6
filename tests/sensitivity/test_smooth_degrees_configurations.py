"""Unit tests for smooth sensitivity, degrees/q-aggregate bounds, and configurations."""

import math
from itertools import combinations

import numpy as np
import pytest

from repro.core.multi_table import default_beta
from repro.experiments.e08_hierarchical import figure4_skewed_instance
from repro.relational.hypergraph import figure4_query, two_table_query
from repro.relational.instance import Instance
from repro.sensitivity.boundary import boundary_query
from repro.sensitivity.configurations import (
    bucket_index,
    bucket_upper_value,
    configuration_of_instance,
    configuration_residual_upper_bound,
    configuration_t_upper_bound,
)
from repro.sensitivity.degrees import degree_vector, max_degree, t_upper_bound
from repro.sensitivity.local import local_sensitivity
from repro.sensitivity.residual import (
    certified_cutoff,
    maximize_residual,
    maximize_residual_objective,
    residual_sensitivity,
)
from repro.sensitivity.smooth import (
    local_sensitivity_at_distance,
    smooth_sensitivity_bruteforce,
)


@pytest.fixture
def tiny_instance():
    query = two_table_query(2, 2, 2)
    return Instance.from_tuple_lists(query, {"R1": [(0, 0), (1, 0)], "R2": [(0, 1)]})


class TestSmoothSensitivity:
    def test_distance_zero_is_local_sensitivity(self, tiny_instance):
        assert local_sensitivity_at_distance(tiny_instance, 0) == local_sensitivity(
            tiny_instance
        )

    def test_distance_monotone(self, tiny_instance):
        values = [local_sensitivity_at_distance(tiny_instance, k) for k in range(3)]
        assert values[0] <= values[1] <= values[2]

    def test_two_table_distance_growth_is_additive(self, tiny_instance):
        """For two tables, adding k tuples raises the max degree by at most k."""
        base = local_sensitivity(tiny_instance)
        assert local_sensitivity_at_distance(tiny_instance, 2) == base + 2

    def test_sandwich_ls_le_ss_le_rs(self, tiny_instance):
        beta = 0.8
        ls = local_sensitivity(tiny_instance)
        ss = smooth_sensitivity_bruteforce(tiny_instance, beta, max_distance=3)
        rs = residual_sensitivity(tiny_instance, beta)
        assert ls <= ss + 1e-9
        assert ss <= rs + 1e-9

    def test_invalid_arguments(self, tiny_instance):
        with pytest.raises(ValueError):
            local_sensitivity_at_distance(tiny_instance, -1)
        with pytest.raises(ValueError):
            smooth_sensitivity_bruteforce(tiny_instance, 0.0)


class TestDegrees:
    def test_single_relation_degree_is_groupby_count(self, figure4_instance):
        query = figure4_instance.query
        degrees = degree_vector(figure4_instance, [0], ["A", "B"])
        expected = figure4_instance.relation("R1").frequencies.sum(axis=2)  # R1(A, B, D)
        assert np.array_equal(degrees, expected)

    def test_multi_relation_degree_counts_distinct(self, figure4_instance):
        # E = {R3, R4} (atom of G); ∩E = {A, B, G}; y = {A, B}: the degree of an
        # (A, B) value is the number of distinct G values present in R3 ⋈ R4.
        degrees = degree_vector(figure4_instance, [2, 3], ["A", "B"])
        assert degrees.shape == (3, 3)
        assert degrees.max() >= 1
        # Values come from counting distinct G values, so they are bounded by |dom(G)|.
        assert degrees.max() <= 3

    def test_degree_rejects_foreign_attributes(self, figure4_instance):
        with pytest.raises(ValueError):
            degree_vector(figure4_instance, [0], ["C"])  # C is not in R1
        with pytest.raises(ValueError):
            degree_vector(figure4_instance, [2, 3], ["K"])  # K not common to R3, R4

    def test_max_degree_empty_group(self, figure4_instance):
        # With no grouping attributes the degree of a single relation is its size.
        assert max_degree(figure4_instance, [0], []) == figure4_instance.relation(
            "R1"
        ).total()

    def test_t_upper_bound_dominates_boundary_query(self, figure4_instance):
        query = figure4_instance.query
        m = query.num_relations
        for excluded in range(m):
            subset = frozenset(range(m)) - {excluded}
            bound = t_upper_bound(figure4_instance, sorted(subset))
            exact = boundary_query(figure4_instance, sorted(subset))
            assert bound.value >= exact - 1e-9

    def test_t_upper_bound_factors_are_attributes(self, figure4_instance):
        """Lemma 4.8: each factor corresponds to a distinct attribute."""
        query = figure4_instance.query
        tree = query.attribute_tree()
        result = t_upper_bound(figure4_instance, [2, 3, 4])  # E = {R3, R4, R5}
        seen_attributes = set()
        for factor in result.factors:
            matches = [
                name
                for name in query.attribute_names
                if frozenset(query.atom(name)) == factor.relation_subset
                and frozenset(tree.ancestors(name)) == factor.group_attributes
            ]
            assert matches, f"factor {factor} does not correspond to an attribute"
            assert matches[0] not in seen_attributes
            seen_attributes.add(matches[0])

    def test_t_upper_bound_two_table(self, two_table_instance):
        # For a two-table join, T_{R2} = mdeg_2(B) exactly.
        result = t_upper_bound(two_table_instance, [1])
        assert result.value == two_table_instance.relation("R2").frequencies.sum(axis=1).max()


class TestConfigurations:
    def test_bucket_index_grid(self):
        lam = 4.0
        assert bucket_index(0.0, lam) == 1
        assert bucket_index(3.0, lam) == 1
        assert bucket_index(8.0, lam) == 1
        assert bucket_index(9.0, lam) == 2
        assert bucket_index(16.0, lam) == 2
        assert bucket_index(17.0, lam) == 3
        assert bucket_upper_value(2, lam) == 16.0

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            bucket_index(1.0, 0.0)
        with pytest.raises(ValueError):
            bucket_upper_value(0, 1.0)

    def test_configuration_of_instance(self, figure4_instance):
        configuration = configuration_of_instance(figure4_instance, lam=2.0)
        buckets = dict(configuration.buckets)
        assert set(buckets) == set(figure4_instance.query.attribute_names)
        assert all(index >= 1 for index in buckets.values())
        assert configuration.bucket_of("A") == buckets["A"]
        with pytest.raises(KeyError):
            configuration.bucket_of("Z")

    def test_configuration_bounds_dominate_exact_values(self, figure4_instance):
        lam = 2.0
        beta = 0.5
        query = figure4_instance.query
        m = query.num_relations
        configuration = configuration_of_instance(figure4_instance, lam)
        config_ls = max(  # LS^σ_count = max_i T^σ_{[m]∖{i}} (Theorem C.3)
            configuration_t_upper_bound(query, configuration, frozenset(range(m)) - {i}, lam)
            for i in range(m)
        )
        assert config_ls >= local_sensitivity(figure4_instance) - 1e-9
        config_rs = configuration_residual_upper_bound(query, configuration, beta, lam)
        assert config_rs >= residual_sensitivity(figure4_instance, beta) - 1e-9

    def test_configuration_rs_validation(self, figure4_instance):
        configuration = configuration_of_instance(figure4_instance, 2.0)
        with pytest.raises(ValueError):
            configuration_residual_upper_bound(
                figure4_instance.query, configuration, 0.0, 2.0
            )

    def test_default_cutoff_is_residual_sensitivitys(self, figure4_instance, monkeypatch):
        """The cap ⌈(m−1)/β⌉ + 10 it used fell below certified_cutoff from 14–18 relations."""
        from repro.sensitivity import configurations

        cutoffs = []

        def recording(coefficients_by_subset, num_relations, beta, total_cap):
            cutoffs.append(total_cap)
            return maximize_residual(coefficients_by_subset, num_relations, beta, total_cap)

        monkeypatch.setattr(configurations, "maximize_residual", recording)
        configuration = configuration_of_instance(figure4_instance, 2.0)
        for beta in (0.05, 0.5, 2.0):
            configuration_residual_upper_bound(figure4_instance.query, configuration, beta, 2.0)
        # Figure 4 has five relations; the old cap read 90, 18 and 12.
        assert cutoffs == [certified_cutoff(5, beta) for beta in (0.05, 0.5, 2.0)]

    def test_configuration_rs_is_the_enumeration_on_e08(self):
        """E08's default instance: the search returns the enumeration's value bitwise."""
        instance = figure4_skewed_instance(3, rng=np.random.default_rng(0))
        query = instance.query
        beta = default_beta(1.0, 1e-2)
        lam = 1.0 / beta
        configuration = configuration_of_instance(instance, lam)
        m = query.num_relations
        t_bounds = {frozenset(): 1.0}
        for size in range(1, m + 1):
            for subset in combinations(range(m), size):
                key = frozenset(subset)
                t_bounds[key] = configuration_t_upper_bound(query, configuration, key, lam)
        k_max = math.ceil((m - 1) / beta) + 10
        indices = tuple(range(m))
        expected = max(
            maximize_residual_objective(t_bounds, indices, i, beta, k_max)[0] for i in indices
        )
        assert configuration_residual_upper_bound(query, configuration, beta, lam) == expected
