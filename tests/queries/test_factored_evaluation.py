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
relations whose weights are not all one; each query's support box holds the
dense query values bitwise and the dense values are zero outside it; a
session's answers follow its in-place updates; and, with carried answers
forced on (``_MATRIX_CELL_BUDGET`` patched to 0), every update on a box
that is not the whole domain reports an answer change equal to what a full
evaluation moves by, while whole-domain boxes report none.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.datagen.tpch import generate_tpch
from repro.queries import evaluation
from repro.queries.backends import EvaluatorContext
from repro.queries.evaluation import WorkloadEvaluator, shared_evaluator
from repro.queries.linear import ProductQuery, TableQuery
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
        if blocked.on_histogram is not None:
            assert blocked.on_histogram.block >= blocked.rows.size
            assert one.on_histogram.block == 1
    _assert_within(on_histogram, expected[0], 1e-12)
    if generator == "product":  # real-valued weights round
        _assert_within(on_instance, expected[1], 1e-12)
    else:  # integer frequencies times 0/±1 weights sum exactly
        assert on_instance.tobytes() == expected[1].tobytes()


def _is_sliced(box: tuple) -> bool:
    return isinstance(box[0], slice)


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("join", JOINS)
def test_box_values_are_the_dense_values_on_the_box(join, generator):
    query = JOINS[join]
    workload = _workload(query, generator)
    evaluator = WorkloadEvaluator(workload)
    context = EvaluatorContext(workload)
    for index in range(len(workload)):
        dense = workload[index].joint_values()
        box, values = evaluator.query_support(index)
        assert all(isinstance(part, slice) for part in box) or not any(
            isinstance(part, slice) for part in box
        )
        assert values.dtype == np.float64 and values.shape == dense[box].shape, index
        assert values.tobytes() == dense[box].tobytes(), index
        outside = dense.copy()
        outside[box] = 0.0
        assert not outside.any(), index
        assert context.support_size(index) == np.count_nonzero(dense), index
    assert evaluator.total_support_size() == sum(
        np.count_nonzero(product.joint_values()) for product in workload
    )


def test_random_predicates_give_scattered_and_empty_boxes():
    """Across the joins, some predicate keeps scattered values on an axis, and some none."""
    boxes = [
        WorkloadEvaluator(_workload(query, "random_predicates")).query_support(index)
        for query in JOINS.values()
        for index in range(6)
    ]
    assert any(not _is_sliced(box) and values.size for box, values in boxes)
    assert any(values.size == 0 for _, values in boxes)


@pytest.mark.parametrize("carried", [False, True], ids=["evaluated", "carried"])
def test_an_all_zero_query_has_an_empty_box_and_changes_no_cell(carried, monkeypatch):
    if carried:
        monkeypatch.setattr(evaluation, "_MATRIX_CELL_BUDGET", 0)
    query = JOINS["two_table"]
    zero = TableQuery(query.relations[1].name, np.zeros(query.relations[1].shape))
    workload = Workload.attribute_marginals(query, "A").extended([ProductQuery(query, [zero])])
    evaluator = WorkloadEvaluator(workload)
    box, values = evaluator.query_support(len(workload) - 1)
    assert values.size == 0 and EvaluatorContext(workload).support_size(len(workload) - 1) == 0
    initial = np.random.default_rng(11).random(query.joint_domain_size)
    session = evaluator.histogram_session(initial)
    session.accumulate()
    before = session.answers()
    change = session.scale_support(box, np.exp(values))
    if carried:
        assert np.array_equal(change, np.zeros(len(workload)))
    else:
        assert change is None
    assert session.answers().tobytes() == before.tobytes()
    ((_, _, cells),) = session.averaged_slices(1)
    assert cells.tobytes() == initial.tobytes()


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
    expected = initial.reshape(query.shape).copy()
    accumulated = np.zeros_like(expected)
    for index in range(len(workload)):
        box, values = evaluator.query_support(index)
        factors = np.exp(values * rng.normal(scale=0.3))
        assert session.scale_support(box, factors) is None  # under the matrix budget
        expected[box] *= factors
        session.accumulate()
        accumulated += expected
    assert initial.tobytes() == seed_bytes  # the session holds its own copy
    _assert_within(
        session.answers(),
        np.array([product.evaluate_on_histogram(expected) for product in workload]),
        1e-12,
    )
    session.scale(0.5)
    expected *= 0.5
    assert np.isclose(session.total(), expected.sum(), rtol=1e-12, atol=0.0)
    _assert_within(session.answers(), evaluator.answers_on_histogram(expected), 1e-12)
    session.fill(2.0)  # moves no accumulated iterate
    assert session.total() == 2.0 * query.joint_domain_size
    _assert_within(
        session.answers(), evaluator.answers_on_histogram(np.full(query.shape, 2.0)), 1e-12
    )
    ((start, stop, cells),) = session.averaged_slices(len(workload))  # ends the session
    assert (start, stop) == (0, query.joint_domain_size)
    assert np.allclose(cells, accumulated.reshape(-1) / len(workload), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("join", JOINS)
def test_changes_equal_the_move_of_a_full_evaluation(join, generator, monkeypatch):
    monkeypatch.setattr(evaluation, "_MATRIX_CELL_BUDGET", 0)
    query = JOINS[join]
    workload = _workload(query, generator)
    evaluator = WorkloadEvaluator(workload)
    rng = np.random.default_rng(10)
    session = evaluator.histogram_session(rng.random(query.joint_domain_size))
    for index in range(len(workload)):
        box, values = evaluator.query_support(index)
        before = session.answers()
        change = session.scale_support(box, np.exp(values * rng.normal(scale=0.3)))
        after = session.answers()
        assert (change is None) == (values.size == query.joint_domain_size), index
        if change is not None:  # after − before rounds at the answers' scale
            scale = max(1.0, float(np.abs(after).max()))
            assert np.max(np.abs(change - (after - before))) <= 1e-12 * scale, index


def test_every_change_path_occurs():
    """The boxes above include one-relation, several-relation and ``np.ix_`` changes."""
    paths = set()
    for query in JOINS.values():
        for generator in GENERATORS:
            workload = _workload(query, generator)
            evaluator = WorkloadEvaluator(workload)
            for group in evaluator._groups():
                for index in group.rows:
                    box, values = evaluator.query_support(int(index))
                    if 0 < values.size < query.joint_domain_size:
                        paths.add("one" if len(group.relations) == 1 else "several")
                        paths.add("sliced" if _is_sliced(box) else "ix_")
    assert paths == {"one", "several", "sliced", "ix_"}


def test_memory_counts_stacks_box_factors_and_sparse_stacks_once(monkeypatch):
    monkeypatch.setattr(evaluation, "_MATRIX_CELL_BUDGET", 0)
    query = JOINS["two_table"]
    workload = _workload(query, "attribute_marginals").extended(
        _workload(query, "random_predicates").queries + _workload(query, "random_sign").queries
    )
    evaluator = WorkloadEvaluator(workload)
    evaluator.answers_on_histogram(np.zeros(query.shape))  # builds the stacks
    stacks = _stacks(evaluator)
    assert evaluator.estimated_memory() == sum(stack.nbytes for stack in stacks)
    session = evaluator.histogram_session(np.ones(query.joint_domain_size))
    probe = WorkloadEvaluator(workload)  # finds a gathering box without building ours
    gathered = next(
        index for index in range(len(workload)) if not _is_sliced(probe.query_support(index)[0])
    )
    signs = len(workload) - 1  # a ±1 query: two factors over the whole domain
    selected = (1, 2, gathered, signs)  # two marginals, a predicate and a ±1 query
    for index in selected + selected:  # a second update reuses what the first built
        box, values = evaluator.query_support(index)
        change = session.scale_support(box, np.exp(values * 0.1))
        assert (change is None) == (index == signs)  # the ±1 box is the whole domain
    sparse = [array for arrays in evaluator._sparse.values() for array in arrays]
    assert sparse  # the marginals' one-relation group holds its stack sparsely
    boxes = evaluator._context._boxes
    assert sorted(boxes) == sorted(selected)
    factors = [factor for index in selected for factor in boxes[index].factors]
    weights = [table.weights for product in workload for table in product.table_queries]
    copies = [
        factor for factor in factors if not any(np.shares_memory(factor, w) for w in weights)
    ]
    # Only the gathering box copies its two factors; the others view the weights.
    assert len(factors) == 6 and len(copies) == 2
    assert evaluator.estimated_memory() == sum(
        array.nbytes for array in stacks + copies + sparse
    )
    # No box-sized values are kept: every call builds a fresh array.
    for index in selected:
        first, second = evaluator.query_support(index)[1], evaluator.query_support(index)[1]
        assert first.tobytes() == second.tobytes() and not np.shares_memory(first, second)
        assert not any(np.shares_memory(first, array) for array in stacks + factors + sparse)


def test_repeated_pmw_runs_keep_one_traced_peak():
    """Runs that select queries no earlier run selected keep the same traced peak.

    101 ±1 queries over |D| = 2^14: keeping each selected query's |D|-sized
    values would add 128 KiB to every later run's peak per newly selected
    query.  What a support keeps per query is its box and views of its
    weights, a few hundred bytes, so the peaks may move by at most
    |D|/32 cells' bytes per newly selected query.  Tracing starts before the
    evaluator exists, so each peak holds the stacks, and the bound is set
    by them and |D|, not by |Q|·|D|.
    """
    query = two_table_query(32, 32, 16)
    domain_size = query.joint_domain_size
    rng = np.random.default_rng(12)
    instance = Instance.from_frequencies(
        query, {schema.name: rng.integers(0, 3, size=schema.shape) for schema in query.relations}
    )
    workload = Workload.random_sign(query, 100, seed=0)
    config = PMWConfig(num_iterations=30)
    selected: set[int] = set()
    peaks, new = [], []
    tracemalloc.start()
    try:
        evaluator = shared_evaluator(workload)
        evaluator.answers_on_histogram(np.zeros(query.shape))  # builds the stacks
        for seed in range(1, 7):
            tracemalloc.reset_peak()
            result = private_multiplicative_weights(
                instance, workload, 1.0, 1e-6, 1.0, seed=seed, config=config
            )
            peaks.append(tracemalloc.get_traced_memory()[1])
            new.append(len(set(result.selected_queries) - selected))
            selected.update(result.selected_queries)
            del result
    finally:
        tracemalloc.stop()
    assert all(count >= 3 for count in new[1:]), new  # every run selects new queries
    cell_bytes = 8 * domain_size
    assert max(peaks[1:]) - min(peaks[1:]) <= sum(new[1:]) * cell_bytes // 32, (peaks, new)
    stacks = sum(stack.nbytes for stack in _stacks(evaluator))
    assert max(peaks) <= stacks + 16 * cell_bytes, (peaks, stacks)
