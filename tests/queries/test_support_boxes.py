"""Support boxes on the zero patterns that shape a box, against the dense reference.

``WorkloadEvaluator.query_support`` returns a query's non-zero box and its
values there, over the axes the query's weights are held on.  Over
two-table, chain and star joins, and over the counting and all-zero
queries, single-value marginals and prefix ranges on every axis, and
diagonal weights (whose box is the whole domain but whose support is not),
plus random weights: the values, broadcast onto the box, must be bitwise
``ProductQuery.joint_values()`` there, the dense values zero outside it,
and, with carried answers forced on, every update on a box that is not the
whole domain must report the change a full evaluation moves by.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries import evaluation
from repro.queries.evaluation import WorkloadEvaluator
from repro.queries.linear import ProductQuery, TableQuery
from repro.queries.workload import Workload
from repro.relational.hypergraph import chain_query, star_query, two_table_query

#: Weight values with exact zeros and products that round.
WEIGHT_VALUES = (0.0, 0.0, 1.0, -1.0, 0.5, -0.3, 0.7, 1e-3)

JOINS = {
    "two_table": two_table_query(4, 3, 5),
    "chain": chain_query([3, 2, 4, 2, 3]),
    "star": star_query(3, [2, 4, 3]),
}


def _diagonal(schema) -> TableQuery:
    rows, columns = np.indices(schema.shape)
    return TableQuery(schema.name, (rows == columns).astype(float))


def _zero_patterns(query) -> Workload:
    queries = list(Workload.counting(query))
    first = query.relations[0]
    queries.append(ProductQuery(query, [TableQuery(first.name, np.zeros(first.shape))]))
    for name in query.attribute_names:
        queries.extend(Workload.attribute_marginals(query, name, include_counting=False))
        queries.extend(Workload.attribute_ranges(query, name, include_counting=False))
    queries.extend(ProductQuery(query, [_diagonal(schema)]) for schema in query.relations)
    queries.append(ProductQuery(query, [_diagonal(schema) for schema in query.relations]))
    return Workload(query, queries)


def _assert_boxes_match_reference(workload: Workload) -> None:
    evaluator = WorkloadEvaluator(workload)
    for index, product in enumerate(workload):
        dense = product.joint_values()
        box, values = evaluator.query_support(index)
        assert values.ndim == dense.ndim, index
        assert np.broadcast_to(values, dense[box].shape).tobytes() == dense[box].tobytes(), index
        outside = dense.copy()
        outside[box] = 0.0
        assert not outside.any(), index
        assert evaluator._support_size(index) == np.count_nonzero(dense), index


def _assert_changes_match_full_evaluations(workload: Workload) -> None:
    """Needs ``_MATRIX_CELL_BUDGET`` patched to 0."""
    shape = workload.join_query.shape
    evaluator = WorkloadEvaluator(workload)
    rng = np.random.default_rng(0)
    session = evaluator.histogram_session(rng.random(shape))
    for index in range(len(workload)):
        box, values = evaluator.query_support(index)
        before = session.answers()
        change = session.scale_support(box, np.exp(values * rng.normal(scale=0.3)))
        after = session.answers()
        assert (change is None) == (np.empty(shape)[box].size == np.prod(shape)), index
        if change is not None:
            scale = max(1.0, float(np.abs(after).max()))
            assert np.max(np.abs(change - (after - before))) <= 1e-12 * scale, index


@pytest.mark.parametrize("join", sorted(JOINS))
def test_zero_pattern_boxes_match_dense_reference(join):
    _assert_boxes_match_reference(_zero_patterns(JOINS[join]))


@pytest.mark.parametrize("join", sorted(JOINS))
def test_zero_pattern_changes_equal_full_evaluations(join, monkeypatch):
    monkeypatch.setattr(evaluation, "_MATRIX_CELL_BUDGET", 0)
    _assert_changes_match_full_evaluations(_zero_patterns(JOINS[join]))


@st.composite
def _table_query(draw, schema) -> TableQuery:
    """One relation's weights: all-one, zero, marginal, prefix, diagonal or random."""
    pattern = draw(st.sampled_from(("one", "zero", "value", "prefix", "diagonal", "random")))
    shape = schema.shape
    if pattern == "one":
        return TableQuery.all_one(schema)
    if pattern == "zero":
        return TableQuery(schema.name, np.zeros(shape))
    if pattern == "diagonal":
        return _diagonal(schema)
    if pattern == "random":
        cells = draw(
            st.lists(
                st.sampled_from(WEIGHT_VALUES),
                min_size=int(np.prod(shape)),
                max_size=int(np.prod(shape)),
            )
        )
        return TableQuery(schema.name, np.array(cells).reshape(shape))
    attribute = draw(st.sampled_from(schema.attribute_names))
    values = list(schema.attribute(attribute).domain)
    if pattern == "value":
        allowed = [draw(st.sampled_from(values))]
    else:
        allowed = values[: draw(st.integers(1, len(values)))]
    return TableQuery.indicator(schema, {attribute: allowed})


@st.composite
def _workloads(draw) -> Workload:
    query = JOINS[draw(st.sampled_from(sorted(JOINS)))]
    count = draw(st.integers(1, 4))
    queries = [
        ProductQuery(query, [draw(_table_query(schema)) for schema in query.relations])
        for _ in range(count)
    ]
    return Workload(query, queries)


@settings(max_examples=60, deadline=None)
@given(workload=_workloads())
def test_random_weight_boxes_match_dense_reference(workload):
    _assert_boxes_match_reference(workload)


@settings(max_examples=30, deadline=None)
@given(workload=_workloads())
def test_random_weight_changes_equal_full_evaluations(workload):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "_MATRIX_CELL_BUDGET", 0)
        _assert_changes_match_full_evaluations(workload)
