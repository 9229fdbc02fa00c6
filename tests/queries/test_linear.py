"""Unit tests for linear queries over joins."""

from math import prod

import numpy as np
import pytest
from numpy.lib.array_utils import byte_bounds

from repro.core.result import ReleaseResult
from repro.core.synthetic import SyntheticDataset
from repro.mechanisms.spec import PrivacySpec
from repro.queries.evaluation import WorkloadEvaluator
from repro.queries.linear import ProductQuery, TableQuery, all_one_query
from repro.queries.workload import Workload
from repro.relational.hypergraph import JoinQuery, figure4_query, path3_query, two_table_query
from repro.relational.instance import Instance
from repro.relational.join import join_size
from repro.relational.schema import RelationSchema
from tests.relational.test_oracles import join_result


@pytest.fixture
def query():
    return two_table_query(3, 3, 3)


@pytest.fixture
def instance(query):
    return Instance.from_tuple_lists(
        query, {"R1": [(0, 0), (1, 0), (2, 1)], "R2": [(0, 0), (0, 2), (1, 1)]}
    )


class TestTableQuery:
    def test_weights_range_enforced(self, query):
        schema = query.relation("R1")
        with pytest.raises(ValueError):
            TableQuery("R1", np.full(schema.shape, 2.0))
        with pytest.raises(ValueError):
            TableQuery("R1", np.full(schema.shape, np.nan))

    def test_all_one(self, query):
        schema = query.relation("R1")
        table_query = TableQuery.all_one(schema)
        assert table_query.is_all_one()
        assert table_query.weights.shape == schema.shape

    def test_indicator_single_attribute(self, query):
        schema = query.relation("R1")
        indicator = TableQuery.indicator(schema, {"B": [0, 2]})
        assert indicator.weights[1, 0] == 1.0
        assert indicator.weights[1, 1] == 0.0
        assert indicator.weights[0, 2] == 1.0

    def test_indicator_conjunction(self, query):
        schema = query.relation("R2")
        indicator = TableQuery.indicator(schema, {"B": [1], "C": [2]})
        assert indicator.weights[1, 2] == 1.0
        assert indicator.weights.sum() == 1.0

    @pytest.mark.parametrize("attributes", [(), (0,), (2,), (0, 3), (1, 2, 3)])
    def test_indicator_weights_are_a_read_only_broadcast_of_the_mask(self, attributes):
        """The weights span Π|dom(predicate attribute)| cells and are held on those axes."""
        schema = figure4_query(3).relations[2]  # four attributes
        names = [schema.attribute_names[axis] for axis in attributes]
        rng = np.random.default_rng(len(attributes))
        allowed = {name: [int(rng.integers(3)), 2] for name in names}
        indicator = TableQuery.indicator(schema, allowed)
        weights = indicator.weights
        assert weights.shape == schema.shape and not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[(0,) * weights.ndim] = 0.5
        low, high = byte_bounds(weights)
        cells = prod(schema.attribute(name).domain.size for name in names)
        assert high - low == cells * weights.itemsize
        assert indicator.held_axes == attributes
        assert indicator.held_weights().shape == tuple(schema.shape[axis] for axis in attributes)
        dense = np.ones(schema.shape)
        for index in np.ndindex(schema.shape):
            for name in names:
                if index[schema.axis_of(name)] not in allowed[name]:
                    dense[index] = 0.0
        assert np.array_equal(weights, dense)
        assert indicator.is_all_one() == (not attributes)

    def test_held_weights_of_dense_weights_are_the_weights(self, query):
        schema = query.relation("R1")
        weights = np.repeat(np.linspace(-1.0, 1.0, 3).reshape(3, 1), 3, axis=1)
        table_query = TableQuery("R1", weights)
        assert table_query.held_axes == (0, 1)  # constant along B, but not broadcast
        assert table_query.held_weights() is table_query.weights
        assert not table_query.is_all_one()
        assert TableQuery.all_one(schema).held_weights().shape == ()


class TestProductQuery:
    def test_counting_query_equals_join_size(self, instance):
        count = all_one_query(instance.query)
        assert count.evaluate(instance) == join_size(instance)
        assert all(table_query.is_all_one() for table_query in count.table_queries)

    def test_missing_relations_default_to_all_one(self, instance, query):
        schema = query.relation("R1")
        partial = ProductQuery(query, (TableQuery.indicator(schema, {"B": [0]}),))
        # Restricting R1 to B=0: R1 has 2 such records, R2 has 2 records with B=0.
        assert partial.evaluate(instance) == 4
        # R2 was not given: its weights are all one and read-only.
        ones = partial.table_queries[1].weights
        assert partial.table_queries[1].is_all_one()
        with pytest.raises(ValueError):
            ones[0, 0] = 0.0

    def test_unknown_relation_rejected(self, query):
        fake = TableQuery("R9", np.ones((3, 3)))
        with pytest.raises(ValueError):
            ProductQuery(query, (fake,))

    def test_wrong_shape_rejected(self, query):
        with pytest.raises(ValueError):
            ProductQuery(query, (TableQuery("R1", np.ones((2, 2))),))

    def test_a_mapping_is_refused_not_misfiled(self, query):
        """A mapping keyed by another relation's name would put R2's weights in R1's slot."""
        misfiled = {"R1": TableQuery("R2", np.zeros((3, 3)))}
        with pytest.raises(TypeError, match="TableQuery"):
            ProductQuery(query, misfiled)

    def test_a_relation_given_twice_is_refused(self, query):
        first = TableQuery.indicator(query.relation("R1"), {"A": [0]})
        second = TableQuery.indicator(query.relation("R1"), {"A": [1]})
        with pytest.raises(ValueError, match="'R1' is given two table queries"):
            ProductQuery(query, (first, second))

    def test_evaluation_matches_histogram_evaluation(self, instance):
        rng = np.random.default_rng(3)
        query = instance.query
        table_queries = [
            TableQuery(schema.name, rng.uniform(-1, 1, size=schema.shape))
            for schema in query.relations
        ]
        product = ProductQuery(query, table_queries)
        direct = product.evaluate(instance)
        via_histogram = product.evaluate_on_histogram(join_result(instance).astype(float))
        assert direct == pytest.approx(via_histogram)

    def test_joint_values_range(self, instance, rng):
        query = instance.query
        table_queries = [
            TableQuery(schema.name, rng.uniform(-1, 1, size=schema.shape))
            for schema in query.relations
        ]
        product = ProductQuery(query, table_queries)
        values = product.joint_values()
        assert values.shape == query.shape
        assert values.max() <= 1.0 + 1e-12
        assert values.min() >= -1.0 - 1e-12

    def test_histogram_shape_checked(self, query):
        count = all_one_query(query)
        with pytest.raises(ValueError):
            count.evaluate_on_histogram(np.zeros((2, 2, 2)))

    def test_signed_weights_linear_combination(self, instance):
        """q(I) is linear: splitting the instance splits the answer."""
        query = instance.query
        rng = np.random.default_rng(5)
        product = ProductQuery(
            query,
            [
                TableQuery(schema.name, rng.choice([-1.0, 1.0], size=schema.shape))
                for schema in query.relations
            ],
        )
        # Doubling R1's multiplicities doubles the answer.
        doubled = instance.with_relation(
            "R1", instance.relation("R1").with_frequencies(instance.relation("R1").frequencies * 2)
        )
        assert product.evaluate(doubled) == pytest.approx(2 * product.evaluate(instance))

    def test_three_table_query_evaluation(self):
        query = path3_query(2, 2, 2, 2)
        instance = Instance.from_tuple_lists(
            query,
            {"R1": [(0, 0)], "R2": [(0, 1)], "R3": [(1, 1)]},
        )
        count = all_one_query(query)
        assert count.evaluate(instance) == 1
        values = count.joint_values()
        assert values.shape == (2, 2, 2, 2)
        assert np.all(values == 1.0)


def _join_that_differs_in(kind: str) -> JoinQuery:
    """``two_table_query(4, 4, 4)`` with one structural difference."""
    if kind == "relation names":
        return two_table_query(4, 4, 4, names=("S1", "S2"))
    if kind == "attribute names":
        return two_table_query(4, 4, 4, attribute_names=("A", "B", "D"))
    if kind == "relation attributes":  # R2(C, B) instead of R2(B, C)
        a, b, c = two_table_query(4, 4, 4).attributes
        return JoinQuery((a, b, c), (RelationSchema("R1", (a, b)), RelationSchema("R2", (c, b))))
    return two_table_query(4, 1, 4)  # one attribute's domain


KINDS = ["relation names", "attribute names", "relation attributes", "attribute domain"]


@pytest.mark.parametrize("kind", KINDS)
def test_a_workload_rejects_a_query_over_another_join(kind):
    """A workload's queries must be over a join structurally equal to its own.

    Checking names only, the last two were accepted: a query over
    ``two_table_query(4, 1, 4)`` with (4, 1) R1 weights, in a workload over
    ``two_table_query(4, 4, 4)``, answered 2.0 on a join of size 2 and 64.0
    on the all-ones histogram.
    """
    join = two_table_query(4, 4, 4)
    other = _join_that_differs_in(kind)
    schema = other.relations[0]
    stranger = ProductQuery(other, [TableQuery(schema.name, np.ones(schema.shape))])
    with pytest.raises(ValueError):
        Workload(join, [all_one_query(join), stranger])
    twin = all_one_query(two_table_query(4, 4, 4))  # equal structure, another object
    assert len(Workload(join, [all_one_query(join), twin])) == 2


ANSWER_ON_INSTANCE = {
    "ProductQuery.evaluate": lambda workload, instance: [q.evaluate(instance) for q in workload],
    "WorkloadEvaluator.answers_on_instance": lambda workload, instance: (
        WorkloadEvaluator(workload).answers_on_instance(instance)
    ),
    # A release over the instance's join, its histogram the join result.
    "ReleaseResult.answer_workload": lambda workload, instance: ReleaseResult(
        SyntheticDataset(instance.query, join_result(instance).astype(float)),
        PrivacySpec(1.0, 1e-5),
        "test",
    ).answer_workload(workload),
}


@pytest.mark.parametrize("caller", ANSWER_ON_INSTANCE)
@pytest.mark.parametrize("kind", KINDS)
def test_an_instance_over_another_join_is_rejected(kind, caller):
    """The per-instance answers and a release's answers make the same structural check.

    Unchecked, the last two broadcast: over ``two_table_query(4, 1, 4)`` with
    R1 = {(0, 0), (1, 0)} and R2 = {(0, 2)} (join size 2) the counting query
    read 8.0.  A release's answers were unchecked on the three joins with
    the workload's |D|: a ``two_table_query(4, 4, 4)`` release answered
    B-marginals over ``two_table_query(2, 8, 4)`` without complaint.
    """
    workload = Workload.attribute_marginals(two_table_query(4, 4, 4), "C")
    other = _join_that_differs_in(kind)
    instance = Instance.from_frequencies(
        other, {schema.name: np.ones(schema.shape, dtype=np.int64) for schema in other.relations}
    )
    with pytest.raises(ValueError):
        ANSWER_ON_INSTANCE[caller](workload, instance)
