"""The support build against the dense reference.

``EvaluatorContext.build_support`` scans only each query's non-zero box in
slabs of ``chunk_size`` box cells.  Its ``(flat indices, values)`` must be
byte-equal to the dense reference, ``flatnonzero`` over
``ProductQuery.joint_values()``, at every chunk size, over two-table, chain
and star joins and over the zero patterns that shape a box: the counting and
all-zero queries, single-value marginals and prefix ranges on every axis,
and diagonal weights, whose box is the whole domain but whose support is not.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries.backends import EvaluatorContext
from repro.queries.linear import ProductQuery, TableQuery
from repro.queries.workload import Workload
from repro.relational.hypergraph import chain_query, star_query, two_table_query

#: Chunk sizes of 1 and 7 split the box inside a row; ``None`` stands for
#: ``|D| + 1``, one slab per query.
CHUNK_SIZES = (1, 7, 16, None)

#: Weight values with exact zeros and products that round.
WEIGHT_VALUES = (0.0, 0.0, 1.0, -1.0, 0.5, -0.3, 0.7, 1e-3)


JOINS = {
    "two_table": two_table_query(4, 3, 5),
    "chain": chain_query([3, 2, 4, 2, 3]),
    "star": star_query(3, [2, 4, 3]),
}


def _reference(query: ProductQuery) -> tuple[np.ndarray, np.ndarray]:
    values = query.joint_values().reshape(-1)
    indices = np.flatnonzero(values)
    return indices.astype(np.int64), values[indices]


def _assert_builds_match_reference(workload: Workload) -> None:
    domain_size = workload.join_query.joint_domain_size
    references = [_reference(query) for query in workload]
    for chunk_size in CHUNK_SIZES:
        context = EvaluatorContext(workload, chunk_size=chunk_size or domain_size + 1)
        for index, (ref_indices, ref_values) in enumerate(references):
            indices, values = context.build_support(index)
            assert indices.dtype == np.int64 and values.dtype == np.float64
            assert np.all(np.diff(indices) > 0), (chunk_size, index)
            assert indices.tobytes() == ref_indices.tobytes(), (chunk_size, index)
            assert values.tobytes() == ref_values.tobytes(), (chunk_size, index)


def _diagonal(schema) -> TableQuery:
    rows, columns = np.indices(schema.shape)
    return TableQuery(schema.name, (rows == columns).astype(float))


@pytest.mark.parametrize("join", sorted(JOINS))
def test_zero_patterns_match_dense_reference(join):
    query = JOINS[join]
    queries = list(Workload.counting(query))
    first = query.relations[0]
    queries.append(ProductQuery(query, [TableQuery(first.name, np.zeros(first.shape))]))
    for name in query.attribute_names:
        queries.extend(Workload.attribute_marginals(query, name, include_counting=False))
        queries.extend(Workload.attribute_ranges(query, name, include_counting=False))
    queries.extend(ProductQuery(query, [_diagonal(schema)]) for schema in query.relations)
    queries.append(ProductQuery(query, [_diagonal(schema) for schema in query.relations]))
    _assert_builds_match_reference(Workload(query, queries))


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
def test_random_weights_match_dense_reference(workload):
    _assert_builds_match_reference(workload)


@pytest.mark.parametrize(
    "shape, weights",
    [
        # w_1[a, b] = [a = b]: a box row is exactly one chunk.
        ((64, 64, 64), {"R1": "diagonal"}),
        # w_1 = 1/2, w_2[b, c] = [b = c]: a box row is 16 chunks, so the
        # slabs split inside it.
        ((4, 256, 256), {"R1": "half", "R2": "diagonal"}),
    ],
)
def test_support_build_memory_is_bounded_by_the_chunk(shape, weights):
    """Diagonal queries at ``|D| = 2^18`` build in chunk-sized slabs.

    Their box is the whole domain, so only the slabbing keeps the peak below
    one ``|D|``-length float64 array; a dense joint vector costs several.
    """
    query = two_table_query(*shape)
    table_queries = [
        _diagonal(schema) if weights[schema.name] == "diagonal"
        else TableQuery(schema.name, np.full(schema.shape, 0.5))
        for schema in query.relations
        if schema.name in weights
    ]
    workload = Workload(query, [ProductQuery(query, table_queries)])
    chunk_size = 1 << 12
    context = EvaluatorContext(workload, chunk_size=chunk_size)
    context.chunk_plan(0)
    tracemalloc.start()
    try:
        indices, values = context.build_support(0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert indices.size == context.support_size(0) == shape[0] * shape[2]
    returned = indices.nbytes + values.nbytes
    assert peak <= 2 * returned + 64 * chunk_size
    assert peak < 8 * query.joint_domain_size
