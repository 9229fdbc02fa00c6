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
relations whose weights are not all one and, per relation, the axes its
weights are held on (not broadcast along), and each stack row is those
weights over those axes alone; each query's support values span only
those axes and, broadcast onto its box, hold the dense query values
bitwise, and the dense values are zero outside it; a session's answers
follow its in-place updates, which the values make as if they filled the
box; and, with carried answers forced on (``_MATRIX_CELL_BUDGET`` patched
to 0), every update on a box that is not the whole domain reports an
answer change equal to what a full evaluation moves by, while
whole-domain boxes report none.  Besides the workload
generators, the generators include products of indicator pools (groups
over several relations, each narrowed to one attribute), two-attribute
indicators, weights broadcast from 0.5 and from 0 (no held axis) and dense
weights that are constant along an axis (every axis held).
"""

import tracemalloc
from math import prod

import numpy as np
import pytest

from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.datagen.tpch import generate_tpch
from repro.queries import evaluation
from repro.queries.evaluation import WorkloadEvaluator, shared_evaluator
from repro.queries.linear import ProductQuery, TableQuery, all_one_query
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
    "indicator_product",
    "two_attribute_indicator",
    "half_broadcast",
    "zero_broadcast",
    "constant_along_an_axis",
)

#: Generators with weights other than 0, ±1 and 0.5, whose instance answers round.
ROUNDING = ("product", "constant_along_an_axis")


def _broadcast_queries(query, value: float) -> list[ProductQuery]:
    """Weights broadcast from ``value`` on each relation, alone and beside an indicator."""
    queries = []
    for schema in query.relations:
        weights = np.broadcast_to(value, schema.shape)
        queries.append(ProductQuery(query, [TableQuery(schema.name, weights)]))
    first, other = query.relations[0], query.relations[-1]
    name = other.attribute_names[-1]
    indicator = TableQuery.indicator(other, {name: list(other.attribute(name).domain)[:1]})
    constant = TableQuery(first.name, np.broadcast_to(value, first.shape))
    queries.append(ProductQuery(query, [constant, indicator]))
    return queries


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
    if generator == "indicator_product":
        # One value and every other value of each end attribute of the first two relations.
        pools = {}
        for schema in query.relations[:2]:
            pools[schema.name] = []
            for name in (schema.attribute_names[0], schema.attribute_names[-1]):
                values = list(schema.attribute(name).domain)
                for allowed in (values[:1], values[::2]):
                    pools[schema.name].append(TableQuery.indicator(schema, {name: allowed}))
        return Workload.product(query, pools)
    if generator == "two_attribute_indicator":
        schema = max(query.relations, key=lambda relation: len(relation.attribute_names))
        one, two = schema.attribute_names[:2]
        seconds = list(schema.attribute(two).domain)
        queries = [all_one_query(query)] + [
            ProductQuery(query, [TableQuery.indicator(schema, {one: [value], two: allowed})])
            for value in list(schema.attribute(one).domain)[:3]
            for allowed in (seconds[1:2], seconds[::2])
        ]
        return Workload(query, queries)
    if generator == "half_broadcast":
        return Workload(query, [all_one_query(query)] + _broadcast_queries(query, 0.5))
    if generator == "zero_broadcast":
        return Workload.attribute_marginals(query, last).extended(_broadcast_queries(query, 0.0))
    rng = np.random.default_rng(3)
    if generator == "constant_along_an_axis":
        queries = []
        for schema in query.relations[:2]:
            for axis, extent in enumerate(schema.shape):
                shape = list(schema.shape)
                shape[axis] = 1
                weights = np.repeat(rng.uniform(-1.0, 1.0, size=shape), extent, axis=axis)
                queries.append(ProductQuery(query, [TableQuery(schema.name, weights)]))
        return Workload(query, queries)
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
    if generator in ROUNDING:  # real-valued weights round
        scale = max(1.0, float(np.abs(reference).max()))
        assert np.max(np.abs(answers - reference)) <= 1e-12 * scale
    else:  # integer frequencies times 0, ±1 and 0.5 weights sum exactly
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
def test_groups_partition_the_queries_by_relation_and_held_axes(join, generator):
    query = JOINS[join]
    workload = _workload(query, generator)
    evaluator = WorkloadEvaluator(workload)
    groups = evaluator._groups()
    rows = sorted(int(row) for group in groups for row in group.rows)
    assert rows == list(range(len(workload)))
    assert len({(group.relations, group.held) for group in groups}) == len(groups)
    relation_sets = evaluator._relation_sets()
    assert len({part.groups[0].relations for part in relation_sets}) == len(relation_sets)
    axes_of = [
        tuple(query.axis_of(name) for name in schema.attribute_names) for schema in query.relations
    ]
    for part in relation_sets:
        relations = part.groups[0].relations
        attributes = sorted({axis for position in relations for axis in axes_of[position]})
        others = tuple(axis for axis in range(len(query.shape)) if axis not in attributes)
        assert part.summed == others
        for group in part.groups:
            assert group.relations == relations
            assert group.axes == tuple(sorted({axis for held in group.held for axis in held}))
            assert group.summed == tuple(
                place for place, axis in enumerate(attributes) if axis not in group.axes
            )
            assert (group.on_histogram is None) == (not relations)
            for held, stack in zip(group.held, group.stacks):
                assert stack.shape == (group.rows.size,) + tuple(query.shape[axis] for axis in held)
            for row, index in enumerate(group.rows):
                table_queries = workload[int(index)].table_queries
                assert relations == tuple(
                    position
                    for position, table_query in enumerate(table_queries)
                    if not np.all(table_query.weights == 1.0)
                )
                for position, held, stack in zip(relations, group.held, group.stacks):
                    weights = table_queries[position].weights
                    strides = zip(axes_of[position], weights.strides)
                    assert held == tuple(axis for axis, stride in strides if stride)
                    # The row, broadcast back over the relation, is its weights.
                    shape = [query.shape[axis] if axis in held else 1 for axis in axes_of[position]]
                    restored = np.broadcast_to(stack[row].reshape(shape), weights.shape)
                    assert np.array_equal(restored, weights)


def test_marginal_stacks_hold_one_row_of_the_attribute_per_query():
    """A one-way marginal's stack row has |dom(attribute)| cells, not |dom(R)|."""
    query = two_table_query(5, 4, 6)
    workload = Workload.attribute_marginals(query, "A").extended(
        Workload.attribute_marginals(query, "B", include_counting=False).queries
    )
    groups = WorkloadEvaluator(workload)._groups()
    shapes = sorted(group.stacks[0].shape for group in groups if group.stacks)
    assert shapes == [(4, 4), (5, 5)]  # both over R1(A, B), in two groups
    assert all(len(group.stacks) <= 1 for group in groups)


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
    if generator in ROUNDING:  # real-valued weights round
        _assert_within(on_instance, expected[1], 1e-12)
    else:  # integer frequencies times 0, ±1 and 0.5 weights sum exactly
        assert on_instance.tobytes() == expected[1].tobytes()


def _is_sliced(box: tuple) -> bool:
    return isinstance(box[0], slice)


def _box_shape(box: tuple, shape: tuple[int, ...]) -> tuple[int, ...]:
    """The shape of the cells ``box`` indexes in a joint-shaped array of ``shape``."""
    return np.empty(shape)[box].shape


def _on_box(values: np.ndarray, shape: tuple[int, ...], box: tuple) -> np.ndarray:
    """A query's support values broadcast onto its box."""
    return np.broadcast_to(values, _box_shape(box, shape))


def _is_whole(box: tuple, shape: tuple[int, ...]) -> bool:
    """Whether ``box`` holds every cell of the joint ``shape``."""
    return prod(_box_shape(box, shape)) == prod(shape)


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("join", JOINS)
def test_box_values_are_the_dense_values_on_the_box(join, generator):
    query = JOINS[join]
    workload = _workload(query, generator)
    evaluator = WorkloadEvaluator(workload)
    for index in range(len(workload)):
        dense = workload[index].joint_values()
        box, values = evaluator.query_support(index)
        assert all(isinstance(part, slice) for part in box) or not any(
            isinstance(part, slice) for part in box
        )
        assert values.dtype == np.float64 and values.ndim == dense.ndim, index
        assert _on_box(values, query.shape, box).tobytes() == dense[box].tobytes(), index
        outside = dense.copy()
        outside[box] = 0.0
        assert not outside.any(), index
        assert evaluator._support_size(index) == np.count_nonzero(dense), index
    assert evaluator.total_support_size() == sum(
        np.count_nonzero(product.joint_values()) for product in workload
    )


def test_values_span_only_the_axes_the_weights_are_held_on():
    """A one-way marginal's values are one cell; a ±1 query over two relations fills its box."""
    for query in JOINS.values():
        marginals = Workload.attribute_marginals(query, query.attribute_names[-1])
        evaluator = WorkloadEvaluator(marginals)
        for index in range(1, len(marginals)):
            box, values = evaluator.query_support(index)
            assert values.shape == (1,) * len(query.shape), index
            assert prod(_box_shape(box, query.shape)) * query.shape[-1] == prod(query.shape)
    query = JOINS["two_table"]
    first, second = query.relations
    rng = np.random.default_rng(0)
    signs = rng.choice((-1.0, 1.0), size=first.shape)
    signs[:2] = 0.0  # the box keeps A from 2 on
    signed = ProductQuery(
        query,
        [
            TableQuery(first.name, signs),
            TableQuery(second.name, rng.choice((-1.0, 1.0), size=second.shape)),
        ],
    )
    box, values = WorkloadEvaluator(Workload(query, [signed])).query_support(0)
    assert box == (slice(2, 5), slice(0, 4), slice(0, 6))
    assert values.shape == (3, 4, 6)
    assert values.tobytes() == signed.joint_values()[box].tobytes()


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("join", JOINS)
def test_values_update_a_session_as_if_they_filled_the_box(join, generator, monkeypatch):
    """``scale_support`` broadcasts the values onto the box, bitwise.

    Two sessions over one start take every query's update, one with the
    factors as ``query_support`` shapes them, one with them broadcast onto
    the box first.  With carried answers forced on and a running weight in
    the accumulator, the cells, totals, accumulators and answer changes of
    the two stay bitwise equal, whole-domain boxes included.
    """
    monkeypatch.setattr(evaluation, "_MATRIX_CELL_BUDGET", 0)
    query = JOINS[join]
    workload = _workload(query, generator)
    evaluator = WorkloadEvaluator(workload)
    rng = np.random.default_rng(13)
    initial = rng.random(query.joint_domain_size)
    reduced, filled = evaluator.histogram_session(initial), evaluator.histogram_session(initial)
    for index in range(len(workload)):
        box, values = evaluator.query_support(index)
        factors = np.exp(values * rng.normal(scale=0.3))
        reduced.accumulate()
        filled.accumulate()
        change = reduced.scale_support(box, factors)
        expected = filled.scale_support(box, _on_box(factors, query.shape, box).copy())
        if expected is None:
            assert change is None, index
        else:
            assert change.tobytes() == expected.tobytes(), index
        assert reduced.total() == filled.total(), index
        for name in ("_cells", "_accumulator"):
            assert vars(reduced)[name].tobytes() == vars(filled)[name].tobytes(), (index, name)


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
    assert values.size == 0 and evaluator._support_size(len(workload) - 1) == 0
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
        change = session.scale_support(box, factors)
        # Under the matrix budget, or on a whole-domain box, nothing is carried.
        assert (change is None) == (not evaluator._carries() or _is_whole(box, query.shape))
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
        assert (change is None) == _is_whole(box, query.shape), index
        if change is not None:  # after − before rounds at the answers' scale
            scale = max(1.0, float(np.abs(after).max()))
            assert np.max(np.abs(change - (after - before))) <= 1e-12 * scale, index


def test_every_change_path_occurs():
    """The boxes above include one-relation, several-relation and ``np.ix_`` changes.

    Some of them run through groups narrowed below a relation's attributes,
    over one relation and over several, and through a relation held on no
    axis at all (weights broadcast from a constant).
    """
    paths = set()
    for query in JOINS.values():
        for generator in GENERATORS:
            workload = _workload(query, generator)
            evaluator = WorkloadEvaluator(workload)
            for group in evaluator._groups():
                sizes = [len(query.relations[position].shape) for position in group.relations]
                several = len(group.relations) > 1
                for index in group.rows:
                    box, _ = evaluator.query_support(int(index))
                    if 0 < prod(_box_shape(box, query.shape)) < query.joint_domain_size:
                        paths.add("several" if several else "one")
                        paths.add("sliced" if _is_sliced(box) else "ix_")
                        if any(len(held) < size for held, size in zip(group.held, sizes)):
                            paths.add("narrowed, several" if several else "narrowed, one")
                        if not all(group.held):
                            paths.add("no held axis")
    assert paths == {
        "one",
        "several",
        "sliced",
        "ix_",
        "narrowed, one",
        "narrowed, several",
        "no held axis",
    }


def test_memory_counts_stacks_and_box_factor_copies_once(monkeypatch):
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
    boxes = evaluator._boxes
    assert sorted(boxes) == sorted(selected)
    factors = [factor for index in selected for factor in boxes[index].factors]
    weights = [table.weights for product in workload for table in product.table_queries]
    copies = [
        factor for factor in factors if not any(np.shares_memory(factor, w) for w in weights)
    ]
    # Only the gathering box copies its two factors; the others view the weights.
    assert len(factors) == 6 and len(copies) == 2
    assert evaluator.estimated_memory() == sum(array.nbytes for array in stacks + copies)
    # No box-sized values are kept: every call builds a fresh array.
    for index in selected:
        first, second = evaluator.query_support(index)[1], evaluator.query_support(index)[1]
        assert first.tobytes() == second.tobytes() and not np.shares_memory(first, second)
        assert not any(np.shares_memory(first, array) for array in stacks + factors)


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
                instance, workload, 1.0, 1e-6, 1.0, rng=np.random.default_rng(seed), config=config
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
