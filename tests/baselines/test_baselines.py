"""Unit tests for the baseline algorithms."""

import numpy as np
import pytest

from repro.baselines.flawed import flawed_exact_count_release, flawed_padded_release
from repro.baselines.independent_laplace import independent_laplace_answers
from repro.core.pmw import PMWConfig
from repro.datagen.synthetic import figure1_pair
from repro.queries.evaluation import shared_evaluator
from repro.queries.workload import Workload
from repro.relational.join import join_size
from repro.sensitivity.local import local_sensitivity

FAST = PMWConfig(max_iterations=4)


class TestFlawedVariants:
    def test_exact_count_total_tracks_join_size(self, two_table_instance):
        """The defining flaw: the released total equals count(I) exactly."""
        workload = Workload.counting(two_table_instance.query)
        result = flawed_exact_count_release(
            two_table_instance, workload, 1.0, 1e-5, rng=np.random.default_rng(0), pmw_config=FAST
        )
        assert result.synthetic.total_mass() == pytest.approx(
            join_size(two_table_instance), rel=1e-6
        )
        assert result.algorithm == "flawed_exact_count"
        assert "NOT" in result.diagnostics["warning"]

    def test_exact_count_distinguishes_figure1_pair(self):
        """On the Figure 1 pair the released totals differ deterministically."""
        pair = figure1_pair(12)
        workload = Workload.counting(pair.query)
        on_instance = flawed_exact_count_release(
            pair.instance, workload, 1.0, 1e-5, rng=np.random.default_rng(1), pmw_config=FAST
        )
        on_neighbor = flawed_exact_count_release(
            pair.neighbor, workload, 1.0, 1e-5, rng=np.random.default_rng(1), pmw_config=FAST
        )
        assert on_instance.synthetic.total_mass() == pytest.approx(12, rel=1e-6)
        assert on_neighbor.synthetic.total_mass() == pytest.approx(0, abs=1e-9)

    def test_padded_release_adds_uniform_mass(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        result = flawed_padded_release(
            two_table_instance, workload, 1.0, 1e-5, rng=np.random.default_rng(0), pmw_config=FAST
        )
        assert result.synthetic.total_mass() > join_size(two_table_instance)
        assert result.diagnostics["eta"] >= 0
        assert result.diagnostics["delta_tilde"] >= local_sensitivity(two_table_instance)

    def test_padded_histogram_strictly_positive(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        result = flawed_padded_release(
            two_table_instance, workload, 1.0, 1e-5, rng=np.random.default_rng(0), pmw_config=FAST
        )
        assert np.all(result.synthetic.histogram > 0)


class TestIndependentLaplace:
    def test_answers_shape_and_calibration(self, two_table_instance):
        workload = Workload.random_sign(two_table_instance.query, 10, seed=0)
        result = independent_laplace_answers(
            two_table_instance, workload, 1.0, 1e-5, rng=np.random.default_rng(1)
        )
        assert result.answers.shape == (len(workload),)
        assert result.per_query_epsilon == pytest.approx(0.5 / len(workload))
        assert result.sensitivity_bound >= local_sensitivity(two_table_instance)

    def test_error_grows_with_workload_size(self, two_table_instance):
        rng = np.random.default_rng(0)
        errors = {}
        for size in (4, 64):
            workload = Workload.random_sign(two_table_instance.query, size, rng=rng)
            true_answers = shared_evaluator(workload).answers_on_instance(two_table_instance)
            worst = []
            for _ in range(5):
                result = independent_laplace_answers(
                    two_table_instance, workload, 1.0, 1e-5, rng=rng
                )
                worst.append(np.max(np.abs(result.answers - true_answers)))
            errors[size] = np.median(worst)
        assert errors[64] > errors[4]

    def test_multi_table_uses_residual_sensitivity(self, path3_instance):
        workload = Workload.counting(path3_instance.query)
        result = independent_laplace_answers(
            path3_instance, workload, 1.0, 1e-3, rng=np.random.default_rng(2)
        )
        assert result.sensitivity_bound >= 1.0

    def test_reproducible(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        first = independent_laplace_answers(
            two_table_instance, workload, 1.0, 1e-5, rng=np.random.default_rng(3)
        )
        second = independent_laplace_answers(
            two_table_instance, workload, 1.0, 1e-5, rng=np.random.default_rng(3)
        )
        assert np.array_equal(first.answers, second.answers)
