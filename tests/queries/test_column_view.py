"""Support updates that report their answer change.

A session's ``scale_support`` returns ``M[:, S]·(new − old)``, the change
in every answer, when its backend holds a cell→query column view: ``sparse``,
``vector`` on the NumPy engine with scipy, and ``sharded`` with CSR shards.
That change must be what a full ``answers()`` moves by.  Every other backend,
a support whose columns hold over half the stored entries (the counting
query, full-domain ±1 queries), and a process without scipy return ``None``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.queries import vectorized
from repro.queries.evaluation import WorkloadEvaluator, evaluator_backend_costs
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query

WITH_VIEW = [
    ("sparse", {}),
    ("vector", {"engine": "numpy"}),
    ("sharded", {"workers": 2}),
]

WITHOUT_VIEW = [
    ("dense", {}),
    ("streaming", {"chunk_size": 32}),
    ("prefetch", {"chunk_size": 32, "workers": 2}),
    ("domain", {"workers": 2}),
    ("sharded", {"workers": 2, "sparse_cell_budget": 1, "chunk_size": 32}),
]


def _ids(matrix):
    return [
        f"{name}-{'-'.join(f'{k}{v}' for k, v in sorted(kw.items())) or 'default'}"
        for name, kw in matrix
    ]


def _workload() -> Workload:
    """The counting query, one marginal per value of A, B and C, and two ±1 queries."""
    query = two_table_query(12, 5, 6)
    workload = Workload.attribute_marginals(query, "A")
    for name in ("B", "C"):
        workload = workload.extended(
            Workload.attribute_marginals(query, name, include_counting=False).queries
        )
    return workload.extended(
        Workload.random_sign(query, 2, seed=4, include_counting=False).queries
    )


def _histogram(workload: Workload, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random(workload.join_query.joint_domain_size)


def _open(workload, backend, kwargs, flat):
    evaluator = WorkloadEvaluator(workload, mode=backend, **kwargs)
    return evaluator, evaluator.histogram_session(flat)


def _assert_answers(session, workload, expected):
    """The session answers as the serial sparse backend does on ``expected``."""
    reference = WorkloadEvaluator(workload, mode="sparse").answers_on_histogram(expected)
    scale = max(1.0, float(np.abs(reference).max()))
    assert np.max(np.abs(session.answers() - reference)) <= 1e-9 * scale


@pytest.mark.parametrize("backend, kwargs", WITH_VIEW, ids=_ids(WITH_VIEW))
def test_change_equals_the_move_of_a_full_evaluation(backend, kwargs):
    workload = _workload()
    rng = np.random.default_rng(1)
    evaluator, session = _open(workload, backend, kwargs, _histogram(workload, 0))
    try:
        reported = 0
        for index in range(len(workload)):
            indices, values = evaluator.query_support(index)
            before = session.answers()
            change = session.scale_support(indices, np.exp(values * rng.normal()))
            after = session.answers()
            if change is None:
                continue
            reported += 1
            scale = max(1.0, float(np.abs(after).max()))
            assert np.max(np.abs(change - (after - before))) <= 1e-12 * scale, index
        # Every marginal reports; the counting and ±1 queries touch every cell.
        assert reported == len(workload) - 3
        session.close()
    finally:
        evaluator.close()


@pytest.mark.parametrize("backend, kwargs", WITH_VIEW, ids=_ids(WITH_VIEW))
def test_columns_holding_over_half_the_entries_return_none(backend, kwargs):
    workload = _workload()
    evaluator, session = _open(workload, backend, kwargs, _histogram(workload, 2))
    try:
        expected = _histogram(workload, 2)
        for index in (0, len(workload) - 1):  # the counting query, a ±1 query
            indices, _values = evaluator.query_support(index)
            assert indices.size == workload.join_query.joint_domain_size
            assert session.scale_support(indices, np.full(indices.size, 1.5)) is None
            expected[indices] *= 1.5
        _assert_answers(session, workload, expected)  # the updates still landed
        session.close()
    finally:
        evaluator.close()


@pytest.mark.parametrize("backend, kwargs", WITHOUT_VIEW, ids=_ids(WITHOUT_VIEW))
def test_backends_without_a_column_view_return_none(backend, kwargs):
    workload = _workload()
    flat = _histogram(workload, 3)
    evaluator, session = _open(workload, backend, kwargs, flat)
    try:
        session.answers()
        indices, values = evaluator.query_support(1)  # the marginal A=0
        assert session.scale_support(indices, np.exp(values * 0.5)) is None
        expected = flat.copy()
        expected[indices] *= np.exp(values * 0.5)
        _assert_answers(session, workload, expected)
        session.close()
    finally:
        evaluator.close()


@pytest.mark.parametrize("backend", ["sparse", "vector"])
def test_no_scipy_means_no_column_view(backend, monkeypatch):
    monkeypatch.setattr(vectorized, "_scipy_sparse_module", None)
    workload = _workload()
    kwargs = {"engine": "numpy"} if backend == "vector" else {}
    evaluator, session = _open(workload, backend, kwargs, _histogram(workload, 4))
    session.answers()
    indices, values = evaluator.query_support(1)
    assert session.scale_support(indices, np.exp(values * 0.5)) is None
    assert evaluator.backend.column_view() is None


def test_changes_bitwise_equal_across_the_sparse_family():
    """The three backends share one column view layout, so PMW stays bitwise among them."""
    workload = _workload()
    changes = []
    for backend, kwargs in WITH_VIEW:
        evaluator, session = _open(workload, backend, kwargs, _histogram(workload, 5))
        try:
            session.answers()
            indices, values = evaluator.query_support(14)  # the marginal B=1
            changes.append(session.scale_support(indices, np.exp(values * 0.25)))
            session.close()
        finally:
            evaluator.close()
    assert changes[0] is not None
    for change in changes[1:]:
        assert np.array_equal(change, changes[0])


@pytest.mark.parametrize("backend", ["sparse", "vector"])
def test_memory_reports_are_the_resident_arrays(backend):
    """``estimated_memory()`` and the cost entry count what the built backend holds."""
    workload = _workload()
    evaluator = WorkloadEvaluator(workload, mode=backend)
    evaluator.answers_on_histogram(np.zeros(workload.join_query.shape))
    built = evaluator.backend
    columns = built.column_view()._columns
    arrays = [columns.data, columns.indices, columns.indptr]
    if backend == "sparse":
        arrays += [*built._ensure_csr(), built._ensure_row_ids()]
    else:
        packed = built.packed_workload()
        matrix = built._ensure_kernel()._matrix
        assert np.shares_memory(matrix.data, packed.values)  # scipy copies only the indices
        assert built._row_ids is None  # no vector kernel reads row ids
        arrays += [packed.indptr, packed.indices, packed.values, matrix.indices, matrix.indptr]
    resident = sum(array.nbytes for array in arrays)
    assert built.estimated_memory() == resident
    costs = {cost.backend: cost for cost in evaluator_backend_costs(workload)}
    assert costs[backend].memory_bytes == resident

