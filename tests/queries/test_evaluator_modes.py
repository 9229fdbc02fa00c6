"""Parity and mode-selection tests for the sparse workload-evaluation engine.

The dense, sparse, and streaming backends must be interchangeable: identical
instance answers (they share the einsum path), histogram answers equal to
1e-9, and supports that round-trip to the dense query vectors.  Mode
selection is driven by the measured support sizes against the configured
cell budgets.
"""

import numpy as np
import pytest

from repro.queries.evaluation import (
    SparseWorkloadEvaluator,
    WorkloadEvaluator,
    auto_evaluator_mode,
    shared_evaluator,
)
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query
from repro.relational.instance import Instance
from repro.relational.join import join_result

MODES = ("dense", "sparse", "streaming")


@pytest.fixture
def query():
    return two_table_query(6, 5, 4)


@pytest.fixture
def instance(query, rng):
    tuples_r1 = [(int(rng.integers(6)), int(rng.integers(5))) for _ in range(40)]
    tuples_r2 = [(int(rng.integers(5)), int(rng.integers(4))) for _ in range(40)]
    return Instance.from_tuple_lists(query, {"R1": tuples_r1, "R2": tuples_r2})


@pytest.fixture
def workload(query):
    # Marginals (sparse rows) plus random signs (dense rows) plus counting.
    return Workload.attribute_marginals(query, "B").extended(
        Workload.random_sign(query, 5, seed=3, include_counting=False).queries
    )


def _evaluators(workload):
    return {
        mode: WorkloadEvaluator(workload, mode=mode, chunk_size=16) for mode in MODES
    }


class TestModeParity:
    def test_instance_answers_identical(self, workload, instance):
        evaluators = _evaluators(workload)
        reference = evaluators["dense"].answers_on_instance(instance)
        for mode in MODES:
            assert np.array_equal(
                evaluators[mode].answers_on_instance(instance), reference
            ), mode

    def test_histogram_answers_match_to_1e9(self, workload, instance, rng):
        evaluators = _evaluators(workload)
        histograms = [
            join_result(instance).astype(float),
            rng.random(workload.join_query.shape) * 10.0,
        ]
        for histogram in histograms:
            reference = evaluators["dense"].answers_on_histogram(histogram)
            scale = max(1.0, float(np.abs(reference).max()))
            for mode in MODES:
                answers = evaluators[mode].answers_on_histogram(histogram)
                assert np.max(np.abs(answers - reference)) <= 1e-9 * scale, mode

    def test_query_support_roundtrips_to_dense_vector(self, workload):
        evaluators = _evaluators(workload)
        for mode in MODES:
            evaluator = evaluators[mode]
            for index in range(len(workload)):
                indices, values = evaluator.query_support(index)
                dense = np.zeros(evaluator.domain_size)
                dense[indices] = values
                assert np.array_equal(dense, evaluators["dense"].query_values(index)), (
                    mode,
                    index,
                )

    def test_chunked_support_build_matches_dense_build(self, workload, monkeypatch):
        import repro.queries.backends as backends

        reference = WorkloadEvaluator(workload, mode="sparse")
        # Force the chunked scan (normally reserved for huge joint domains).
        chunked = WorkloadEvaluator(workload, mode="sparse", chunk_size=16)
        for index in range(len(workload)):
            ref_indices, ref_values = reference.query_support(index)
            chk_indices, chk_values = chunked.query_support(index)
            assert np.array_equal(ref_indices, chk_indices)
            assert np.array_equal(ref_values, chk_values)

    def test_support_size_matches_nnz(self, workload):
        evaluator = WorkloadEvaluator(workload, mode="sparse")
        for index in range(len(workload)):
            nnz = int(np.count_nonzero(evaluator.query_values(index)))
            assert evaluator.support_size(index) == nnz
        assert evaluator.total_support_size() == sum(
            evaluator.support_size(index) for index in range(len(workload))
        )

    def test_marginal_supports_are_small(self, query):
        workload = Workload.attribute_marginals(query, "B", include_counting=False)
        evaluator = WorkloadEvaluator(workload, mode="sparse")
        # Each B-marginal touches exactly |dom(A)|·|dom(C)| of the |D| cells.
        domain = query.joint_domain_size
        expected = domain // query.attribute("B").domain.size
        for index in range(len(workload)):
            assert evaluator.support_size(index) == expected


class TestModeSelection:
    """Pinned to one core: on two or more, ``prefetch`` replaces ``streaming``."""

    @pytest.fixture(autouse=True)
    def _one_core(self, monkeypatch):
        monkeypatch.setattr("repro.queries.backends.effective_cpu_count", lambda: 1)

    def test_auto_picks_dense_under_budget(self, workload):
        assert WorkloadEvaluator(workload).mode == "dense"

    def test_auto_picks_sparse_over_matrix_budget(self, workload):
        evaluator = WorkloadEvaluator(workload, cell_budget=10)
        assert evaluator.mode == "sparse"
        assert not evaluator.has_matrix

    def test_auto_falls_back_to_streaming(self, workload):
        evaluator = WorkloadEvaluator(workload, cell_budget=10, sparse_cell_budget=10)
        assert evaluator.mode == "streaming"

    def test_auto_falls_back_to_prefetch_on_two_cores(self, workload, monkeypatch):
        monkeypatch.setattr("repro.queries.backends.effective_cpu_count", lambda: 2)
        evaluator = WorkloadEvaluator(workload, cell_budget=10, sparse_cell_budget=10)
        assert evaluator.mode == "prefetch"

    def test_materialize_flags_keep_legacy_meaning(self, workload):
        assert WorkloadEvaluator(workload, materialize=True).mode == "dense"
        forbidden = WorkloadEvaluator(workload, materialize=False)
        assert forbidden.mode in ("sparse", "streaming")
        assert not forbidden.has_matrix

    def test_sparse_evaluator_never_dense(self, workload):
        assert SparseWorkloadEvaluator(workload).mode == "sparse"
        assert SparseWorkloadEvaluator(workload, sparse_cell_budget=10).mode == "streaming"

    def test_auto_evaluator_mode_matches_constructor_choice(self, workload):
        assert auto_evaluator_mode(workload) == WorkloadEvaluator(workload).mode
        assert auto_evaluator_mode(workload, cell_budget=10) == "sparse"
        assert (
            auto_evaluator_mode(workload, cell_budget=10, sparse_cell_budget=10)
            == "streaming"
        )

    def test_invalid_mode_rejected(self, workload):
        with pytest.raises(ValueError):
            WorkloadEvaluator(workload, mode="magic")
        with pytest.raises(ValueError):
            WorkloadEvaluator(workload, chunk_size=0)


class TestSharedEvaluator:
    def test_same_workload_shares_one_evaluator(self, workload):
        assert shared_evaluator(workload) is shared_evaluator(workload)

    def test_distinct_workloads_get_distinct_evaluators(self, query):
        first = Workload.counting(query)
        second = Workload.counting(query)
        assert shared_evaluator(first) is not shared_evaluator(second)
