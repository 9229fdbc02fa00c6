"""The factored evaluator against the per-query references.

``WorkloadEvaluator`` stacks each relation's weights across the workload and
answers every group of queries with one planned chain: a batched matmul,
then one einsum per further relation.  On every generator and on two-table,
chain, star, wide, Figure 4 (five relations, ``R5(A, C)`` skipping axis B,
``R3`` and ``R4`` holding four attributes) and TPC-H chain (E5's three
relations, uneven extents) joins its histogram answers must agree with
``ProductQuery.evaluate_on_histogram`` (the dense reference) to 1e-12
relative, and its instance answers with ``ProductQuery.evaluate`` bitwise
for 0/±1 weights.  The wide join has 17 attributes, so its last attribute
takes the einsum letter ``q``: a query-axis label drawn from that alphabet
would collide with it.  A full evaluation runs in query blocks whose
temporaries stay within ``_BLOCK_CELLS``·|D| cells, and its answers do not
depend on how the queries are blocked.  Each stack is stored once, in the
layout the plan reads, and a group's stacks are views of those arrays.

On the same generators and joins: the groups partition the workload by the
relations whose weights are not all one; every support is byte-equal to the
non-zeros of the dense query vector and becomes a slice of the workload CSR
once that is filled; a session's answers follow its in-place updates; and,
with the column view forced on (``_MATRIX_CELL_BUDGET`` patched to 0), a
support update reports its answer change exactly when its columns hold at
most half the stored entries, and that change is what a full evaluation
moves by.
"""

import tracemalloc

import numpy as np
import pytest

from repro.datagen.tpch import generate_tpch
from repro.queries import evaluation
from repro.queries.evaluation import WorkloadEvaluator
from repro.queries.linear import TableQuery
from repro.queries.workload import Workload
from repro.relational.hypergraph import chain_query, figure4_query, star_query, two_table_query
from repro.relational.instance import Instance
from repro.relational.join import _letters_for

JOINS = {
    "two_table": two_table_query(5, 4, 6),
    "chain": chain_query([3, 4, 2, 3, 4]),
    "star": star_query(3, [2, 4, 3]),
    "wide": chain_query([2] * 17),
    "figure4": figure4_query(3),
    "tpch_chain": generate_tpch(0.25, seed=0).nation_customer_orders.query,
}

GENERATORS = (
    "counting",
    "random_sign",
    "attribute_marginals",
    "attribute_ranges",
    "random_predicates",
    "product",
)


def _workload(query, generator: str) -> Workload:
    first, last = query.attribute_names[0], query.attribute_names[-1]
    if generator == "counting":
        return Workload.counting(query)
    if generator == "random_sign":
        return Workload.random_sign(query, 6, seed=1)
    if generator == "attribute_marginals":
        return Workload.attribute_marginals(query, last)
    if generator == "attribute_ranges":
        return Workload.attribute_ranges(query, first)
    if generator == "random_predicates":
        return Workload.random_predicates(query, 5, seed=2)
    rng = np.random.default_rng(3)
    pools = {
        schema.name: [
            TableQuery(schema.name, rng.uniform(-1.0, 1.0, size=schema.shape)) for _ in range(2)
        ]
        for schema in query.relations[:2]
    }
    return Workload.product(query, pools)


def _instance(query) -> Instance:
    rng = np.random.default_rng(4)
    return Instance.from_frequencies(
        query, {schema.name: rng.integers(0, 4, size=schema.shape) for schema in query.relations}
    )


def test_the_wide_join_uses_the_letter_q():
    assert "q" in _letters_for(JOINS["wide"]).values()


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("join", JOINS)
def test_histogram_answers_match_the_dense_reference(join, generator):
    query = JOINS[join]
    workload = _workload(query, generator)
    histogram = np.random.default_rng(5).random(query.shape) * 10.0
    answers = WorkloadEvaluator(workload).answers_on_histogram(histogram)
    reference = np.array([product.evaluate_on_histogram(histogram) for product in workload])
    scale = max(1.0, float(np.abs(reference).max()))
    assert np.max(np.abs(answers - reference)) <= 1e-12 * scale


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("join", JOINS)
def test_instance_answers_match_the_per_query_einsum(join, generator):
    query = JOINS[join]
    workload = _workload(query, generator)
    instance = _instance(query)
    answers = WorkloadEvaluator(workload).answers_on_instance(instance)
    reference = np.array([product.evaluate(instance) for product in workload])
    if generator == "product":  # real-valued weights round
        scale = max(1.0, float(np.abs(reference).max()))
        assert np.max(np.abs(answers - reference)) <= 1e-12 * scale
    else:  # integer frequencies times 0/±1 weights sum exactly
        assert answers.tobytes() == reference.tobytes()


def test_an_instance_over_another_join_is_rejected():
    workload = Workload.random_sign(JOINS["two_table"], 3, seed=0)
    with pytest.raises(ValueError):
        WorkloadEvaluator(workload).answers_on_instance(_instance(two_table_query(5, 4, 7)))


def test_a_full_evaluation_stays_within_the_block_bound():
    """|Q|·|D| is 65× the bound, so only the query blocks keep the peak inside it."""
    query = chain_query([6] * 5)
    domain_size = query.joint_domain_size
    workload = Workload.random_sign(
        query, 65 * evaluation._BLOCK_CELLS, seed=6, include_counting=False
    )
    evaluator = WorkloadEvaluator(workload)
    histogram = np.random.default_rng(7).random(query.shape)
    expected = evaluator.answers_on_histogram(histogram)  # builds the stacks and paths
    tracemalloc.start()
    try:
        answers = evaluator.answers_on_histogram(histogram)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(answers, expected)
    assert peak <= 8 * evaluation._BLOCK_CELLS * domain_size


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("join", JOINS)
def test_each_stack_is_stored_once_in_the_layout_its_plan_reads(join, generator):
    workload = _workload(JOINS[join], generator)
    evaluator = WorkloadEvaluator(workload)
    stored = []
    for group in evaluator._groups():
        if group.on_histogram is None:
            assert group.stacks == ()
            continue
        read = [group.on_histogram.first] + [stack for _, stack, _ in group.on_histogram.steps]
        assert len(read) == len(group.stacks)
        for stack in group.stacks:
            assert sum(np.shares_memory(stack, array) for array in read) == 1
        assert sum(array.nbytes for array in read) == sum(stack.nbytes for stack in group.stacks)
        stored += read
    assert evaluator.estimated_memory() == sum(array.nbytes for array in stored)


def _stacks(evaluator: WorkloadEvaluator) -> list[np.ndarray]:
    return [stack for group in evaluator._groups() for stack in group.stacks]


def _assert_within(answers: np.ndarray, reference: np.ndarray, rtol: float) -> None:
    scale = max(1.0, float(np.abs(reference).max()))
    assert np.max(np.abs(answers - reference)) <= rtol * scale


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("join", JOINS)
def test_groups_partition_the_queries_by_their_weighted_relations(join, generator):
    query = JOINS[join]
    workload = _workload(query, generator)
    groups = WorkloadEvaluator(workload)._groups()
    rows = sorted(int(row) for group in groups for row in group.rows)
    assert rows == list(range(len(workload)))
    assert len({group.relations for group in groups}) == len(groups)
    for group in groups:
        attributes = {
            name
            for position in group.relations
            for name in query.relations[position].attribute_names
        }
        assert group.summed == tuple(
            axis for axis, name in enumerate(query.attribute_names) if name not in attributes
        )
        assert (group.on_histogram is None) == (not group.relations)
        for position, stack in zip(group.relations, group.stacks):
            assert stack.shape == (group.rows.size,) + query.relations[position].shape
        for row, index in enumerate(group.rows):
            table_queries = workload[int(index)].table_queries
            assert group.relations == tuple(
                position
                for position, table_query in enumerate(table_queries)
                if not np.all(table_query.weights == 1.0)
            )
            for position, stack in zip(group.relations, group.stacks):
                assert np.array_equal(stack[row], table_queries[position].weights)


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("join", JOINS)
def test_answers_do_not_depend_on_the_query_blocks(join, generator, monkeypatch):
    query = JOINS[join]
    workload = _workload(query, generator)
    histogram = np.random.default_rng(8).random(query.shape) * 10.0
    instance = _instance(query)
    monkeypatch.setattr(evaluation, "_BLOCK_CELLS", 1 << 40)  # one block per group
    whole = WorkloadEvaluator(workload)
    expected = whole.answers_on_histogram(histogram), whole.answers_on_instance(instance)
    monkeypatch.setattr(evaluation, "_BLOCK_CELLS", 0)  # one query per block
    single = WorkloadEvaluator(workload)
    on_histogram = single.answers_on_histogram(histogram)
    on_instance = single.answers_on_instance(instance)
    for blocked, one in zip(whole._groups(), single._groups()):
        assert blocked.on_instance.block >= blocked.rows.size
        assert one.on_instance.block == 1
        if blocked.on_histogram is not None:
            assert blocked.on_histogram.block >= blocked.rows.size
            assert one.on_histogram.block == 1
    _assert_within(on_histogram, expected[0], 1e-12)
    if generator == "product":  # real-valued weights round
        _assert_within(on_instance, expected[1], 1e-12)
    else:  # integer frequencies times 0/±1 weights sum exactly
        assert on_instance.tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("join", JOINS)
def test_supports_become_slices_of_the_workload_csr(join, generator):
    query = JOINS[join]
    workload = _workload(query, generator)
    evaluator = WorkloadEvaluator(workload)
    evaluator.answers_on_histogram(np.zeros(query.shape))  # builds the stacks
    cached = {index: evaluator.query_support(index) for index in range(0, len(workload), 2)}
    assert evaluator.estimated_memory() == sum(
        array.nbytes
        for array in _stacks(evaluator) + [part for support in cached.values() for part in support]
    )
    indptr, indices, values = evaluator._ensure_csr()
    for index in range(len(workload)):
        dense = evaluator.query_values(index)
        nonzero = np.flatnonzero(dense).astype(np.int64)
        support = evaluator.query_support(index)
        assert support[0].dtype == np.int64 and support[1].dtype == np.float64
        assert support[0].tobytes() == nonzero.tobytes(), index
        assert support[1].tobytes() == dense[nonzero].tobytes(), index
        assert indptr[index + 1] - indptr[index] == evaluator.support_size(index) == nonzero.size
        assert np.array_equal(indices[indptr[index] : indptr[index + 1]], nonzero)
        if nonzero.size:  # an empty slice has no memory to share
            assert np.shares_memory(support[0], indices), index
            assert np.shares_memory(support[1], values), index
    assert evaluator.total_support_size() == indptr[-1]
    assert evaluator.estimated_memory() == sum(
        array.nbytes for array in _stacks(evaluator) + [indptr, indices, values]
    )


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("join", JOINS)
def test_session_answers_follow_its_updates(join, generator):
    query = JOINS[join]
    workload = _workload(query, generator)
    evaluator = WorkloadEvaluator(workload)
    rng = np.random.default_rng(9)
    initial = rng.random(query.joint_domain_size)
    seed_bytes = initial.tobytes()
    session = evaluator.histogram_session(initial)
    expected = initial.copy()
    accumulated = np.zeros_like(expected)
    for index in range(len(workload)):
        indices, values = evaluator.query_support(index)
        factors = np.exp(values * rng.normal(scale=0.3))
        assert session.scale_support(indices, factors) is None  # no column view here
        expected[indices] *= factors
        session.accumulate()
        accumulated += expected
    assert initial.tobytes() == seed_bytes  # the session holds its own copy
    _assert_within(
        session.answers(),
        np.array([product.evaluate_on_histogram(expected.reshape(query.shape)) for product in workload]),
        1e-12,
    )
    session.scale(0.5)
    expected *= 0.5
    assert np.isclose(session.total(), expected.sum(), rtol=1e-12, atol=0.0)
    _assert_within(session.answers(), evaluator.answers_on_histogram(expected), 1e-12)
    ((start, stop, cells),) = session.averaged_slices(len(workload))
    assert (start, stop) == (0, query.joint_domain_size)
    assert np.allclose(cells, accumulated / len(workload), rtol=1e-12, atol=0.0)
    session.fill(2.0)
    assert session.total() == 2.0 * query.joint_domain_size
    _assert_within(
        session.answers(), evaluator.answers_on_histogram(np.full(query.shape, 2.0)), 1e-12
    )


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("join", JOINS)
def test_view_changes_equal_the_move_of_a_full_evaluation(join, generator, monkeypatch):
    monkeypatch.setattr(evaluation, "_MATRIX_CELL_BUDGET", 0)
    query = JOINS[join]
    workload = _workload(query, generator)
    evaluator = WorkloadEvaluator(workload)
    rng = np.random.default_rng(10)
    session = evaluator.histogram_session(rng.random(query.joint_domain_size))
    assert evaluator.column_view() is not None
    indptr, stored, _ = evaluator._ensure_csr()
    readers = np.bincount(stored, minlength=query.joint_domain_size)  # entries per column
    for index in range(len(workload)):
        indices, values = evaluator.query_support(index)
        before = session.answers()
        change = session.scale_support(indices, np.exp(values * rng.normal(scale=0.3)))
        after = session.answers()
        assert (change is not None) == (2 * int(readers[indices].sum()) <= indptr[-1]), index
        if change is not None:  # after − before rounds at the answers' scale
            scale = max(1.0, float(np.abs(after).max()))
            assert np.max(np.abs(change - (after - before))) <= 1e-12 * scale, index
