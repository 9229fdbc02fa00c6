"""Unit tests for the lower-bound hard-instance constructions."""

import numpy as np
import pytest

from repro.lowerbounds.conforming import conforming_two_table_instance
from repro.lowerbounds.single_table_hard import hard_single_table
from repro.lowerbounds.two_table_hard import (
    recover_single_table_answers,
    two_table_hard_instance,
)
from repro.queries.evaluation import WorkloadEvaluator
from repro.relational.join import join_size
from repro.sensitivity.local import local_sensitivity
from tests.relational.test_oracles import is_neighboring


class TestHardSingleTable:
    def test_shapes_and_total(self):
        source = hard_single_table(30, 10, 12, seed=0)
        assert source.n == 30
        assert source.domain_size == 10
        assert source.num_queries == 12
        assert source.query_signs.shape == (12, 10)
        assert set(np.unique(source.query_signs)) <= {-1.0, 1.0}

    def test_concentrated_variant(self):
        source = hard_single_table(20, 5, 4, seed=0, concentrated=True)
        assert source.counts[0] == 20
        assert source.counts[1:].sum() == 0

    def test_true_answers(self):
        source = hard_single_table(10, 4, 3, seed=1)
        answers = source.true_answers()
        expected = source.query_signs @ source.counts
        assert np.allclose(answers, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            hard_single_table(-1, 4, 3)
        with pytest.raises(ValueError):
            hard_single_table(4, 0, 3)


class TestTwoTableHard:
    @pytest.fixture
    def hard(self):
        source = hard_single_table(8, 4, 6, seed=2)
        return two_table_hard_instance(source, delta=3)

    def test_join_size_is_n_times_delta(self, hard):
        assert join_size(hard.instance) == hard.source.n * 3
        assert hard.join_size == hard.source.n * 3

    def test_local_sensitivity_is_delta(self, hard):
        assert local_sensitivity(hard.instance) == 3

    def test_lifted_answers_are_delta_times_source(self, hard):
        evaluator = WorkloadEvaluator(hard.workload)
        answers = evaluator.answers_on_instance(hard.instance)
        expected = hard.lifted_true_answers()
        assert np.allclose(answers, expected)
        # First workload entry is the counting query.
        assert answers[0] == hard.join_size

    def test_recover_inverts_reduction(self, hard):
        evaluator = WorkloadEvaluator(hard.workload)
        answers = evaluator.answers_on_instance(hard.instance)
        recovered = recover_single_table_answers(hard, answers)
        assert np.allclose(recovered, hard.source.true_answers())

    def test_neighboring_tables_give_neighboring_instances(self):
        source = hard_single_table(6, 3, 2, seed=3)
        neighbor_counts = source.counts.copy()
        neighbor_counts[0] += 1
        from repro.lowerbounds.single_table_hard import HardSingleTable

        neighbor_source = HardSingleTable(neighbor_counts, source.query_signs)
        # The copy capacity (dom(B) = D × [n]) is public and must be shared.
        first = two_table_hard_instance(source, delta=2, capacity=8)
        second = two_table_hard_instance(neighbor_source, delta=2, capacity=8)
        assert is_neighboring(first.instance, second.instance)

    def test_without_counting_query(self):
        source = hard_single_table(5, 3, 2, seed=4)
        hard = two_table_hard_instance(source, delta=2, include_counting=False)
        assert len(hard.workload) == 2
        evaluator = WorkloadEvaluator(hard.workload)
        answers = evaluator.answers_on_instance(hard.instance)
        recovered = recover_single_table_answers(hard, answers)
        assert np.allclose(recovered, hard.source.true_answers())

    def test_delta_must_be_positive(self):
        source = hard_single_table(5, 3, 2, seed=4)
        with pytest.raises(ValueError):
            two_table_hard_instance(source, delta=0)


class TestConformingInstance:
    def test_bucket_join_sizes_close_to_targets(self):
        conforming = conforming_two_table_instance({1: 100, 2: 200}, lam=4.0)
        for index, target in {1: 100, 2: 200}.items():
            realized = conforming.bucket_join_sizes[index]
            assert realized == pytest.approx(target, rel=0.6)
        assert join_size(conforming.instance) == conforming.total_join_size

    def test_degrees_fall_in_declared_buckets(self):
        lam = 4.0
        conforming = conforming_two_table_instance({1: 50, 3: 400}, lam=lam)
        for index, degree in conforming.bucket_degrees.items():
            assert lam * 2 ** (index - 1) < degree <= lam * 2**index

    def test_local_sensitivity_matches_largest_bucket(self):
        conforming = conforming_two_table_instance({1: 50, 2: 100}, lam=4.0)
        assert local_sensitivity(conforming.instance) == max(
            conforming.bucket_degrees.values()
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            conforming_two_table_instance({}, lam=4.0)
        with pytest.raises(ValueError):
            conforming_two_table_instance({1: 10}, lam=0.0)
        with pytest.raises(ValueError):
            conforming_two_table_instance({0: 10}, lam=4.0)
        with pytest.raises(ValueError):
            conforming_two_table_instance({1: 0}, lam=4.0)
