"""Support updates that report their answer change.

A session's ``scale_support`` returns ``M[:, S]·(new − old)``, the change
in every answer, when the evaluator holds its cell→query column view: where
``|Q|·|D|`` exceeds ``_MATRIX_CELL_BUDGET`` (patched to 0 here, these
workloads are small) while ``Σ_q nnz(q)`` fits ``_SPARSE_CELL_BUDGET``, and
scipy imports.  That change must be what a full ``answers()`` moves by.
Without the view, on a support whose columns hold over half the stored
entries (the counting query, full-domain ±1 queries), and in a process
without scipy the update returns ``None``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.queries import backends, evaluation
from repro.queries.evaluation import WorkloadEvaluator
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query


@pytest.fixture
def with_view(monkeypatch):
    monkeypatch.setattr(evaluation, "_MATRIX_CELL_BUDGET", 0)


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


def _open(workload, flat):
    evaluator = WorkloadEvaluator(workload)
    return evaluator, evaluator.histogram_session(flat)


def _assert_answers(session, workload, expected):
    """The session answers as the dense per-query reference does on ``expected``."""
    histogram = expected.reshape(workload.join_query.shape)
    reference = np.array([product.evaluate_on_histogram(histogram) for product in workload])
    scale = max(1.0, float(np.abs(reference).max()))
    assert np.max(np.abs(session.answers() - reference)) <= 1e-9 * scale


def test_change_equals_the_move_of_a_full_evaluation(with_view):
    workload = _workload()
    rng = np.random.default_rng(1)
    evaluator, session = _open(workload, _histogram(workload, 0))
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


def test_columns_holding_over_half_the_entries_return_none(with_view):
    workload = _workload()
    evaluator, session = _open(workload, _histogram(workload, 2))
    expected = _histogram(workload, 2)
    for index in (0, len(workload) - 1):  # the counting query, a ±1 query
        indices, _values = evaluator.query_support(index)
        assert indices.size == workload.join_query.joint_domain_size
        assert session.scale_support(indices, np.full(indices.size, 1.5)) is None
        expected[indices] *= 1.5
    assert evaluator.column_view() is not None
    _assert_answers(session, workload, expected)  # the updates still landed


@pytest.mark.parametrize(
    "budgets",
    [{}, {"_MATRIX_CELL_BUDGET": 0, "_SPARSE_CELL_BUDGET": 1}],
    ids=["under_the_matrix_budget", "over_the_support_budget"],
)
def test_evaluators_without_a_column_view_return_none(budgets, monkeypatch):
    for name, value in budgets.items():
        monkeypatch.setattr(evaluation, name, value)
    workload = _workload()
    flat = _histogram(workload, 3)
    evaluator, session = _open(workload, flat)
    session.answers()
    indices, values = evaluator.query_support(1)  # the marginal A=0
    assert session.scale_support(indices, np.exp(values * 0.5)) is None
    assert evaluator.column_view() is None
    expected = flat.copy()
    expected[indices] *= np.exp(values * 0.5)
    _assert_answers(session, workload, expected)


def test_no_scipy_means_no_column_view(with_view, monkeypatch):
    monkeypatch.setattr(backends, "_scipy_sparse_module", None)
    workload = _workload()
    evaluator, session = _open(workload, _histogram(workload, 4))
    session.answers()
    indices, values = evaluator.query_support(1)
    assert session.scale_support(indices, np.exp(values * 0.5)) is None
    assert evaluator.column_view() is None


def test_memory_reports_are_the_resident_arrays(with_view):
    """``estimated_memory()`` counts the stacks, the supports or CSR, and the view."""
    workload = _workload()
    evaluator = WorkloadEvaluator(workload)
    evaluator.answers_on_histogram(np.zeros(workload.join_query.shape))
    stacks = [stack for group in evaluator._groups() for stack in group.stacks]
    supports = [evaluator.query_support(index) for index in (1, 14)]
    assert evaluator.estimated_memory() == sum(
        array.nbytes for array in stacks + [array for support in supports for array in support]
    )
    columns = evaluator.column_view()
    csr = evaluator._ensure_csr()
    for index in (1, 14):  # the cached supports became slices of the CSR
        assert all(np.shares_memory(part, whole) for part, whole in zip(
            evaluator.query_support(index), csr[1:]
        ))
    resident = stacks + list(csr) + list(columns.arrays())
    assert evaluator.estimated_memory() == sum(array.nbytes for array in resident)
