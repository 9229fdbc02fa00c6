"""Unit tests for multi-table instances."""

import numpy as np
import pytest

from repro.relational.hypergraph import two_table_query
from repro.relational.instance import Instance
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Domain, RelationSchema


@pytest.fixture
def query():
    return two_table_query(3, 3, 3)


class TestConstruction:
    def test_empty(self, query):
        instance = Instance.empty(query)
        assert instance.total_size() == 0
        assert instance.num_relations == 2

    def test_from_tuple_lists(self, query):
        instance = Instance.from_tuple_lists(
            query, {"R1": [(0, 1), (1, 1)], "R2": [(1, 2)]}
        )
        assert instance.total_size() == 3
        assert instance.relation("R1").total() == 2
        assert instance.relation_sizes() == {"R1": 2, "R2": 1}

    def test_from_tuple_lists_missing_relation_is_empty(self, query):
        instance = Instance.from_tuple_lists(query, {"R1": [(0, 0)]})
        assert instance.relation("R2").total() == 0

    def test_from_frequencies(self, query):
        r1 = np.zeros((3, 3), dtype=np.int64)
        r1[0, 0] = 4
        instance = Instance.from_frequencies(query, {"R1": r1})
        assert instance.relation("R1").total() == 4
        assert instance.relation("R2").total() == 0

    def test_unknown_relation_name_rejected(self, query):
        # A misspelt name must not silently leave its relation empty.
        with pytest.raises(ValueError, match=r"\['r1'\]"):
            Instance.from_tuple_lists(query, {"r1": [(0, 1)], "R2": [(1, 2)]})
        with pytest.raises(ValueError, match=r"\['R3'\]"):
            Instance.from_frequencies(query, {"R3": np.zeros((3, 3), dtype=np.int64)})

    def test_wrong_relation_count_rejected(self, query):
        r1 = Relation.empty(query.relations[0])
        with pytest.raises(ValueError):
            Instance(query, (r1,))

    def test_wrong_relation_order_rejected(self, query):
        r1 = Relation.empty(query.relations[0])
        r2 = Relation.empty(query.relations[1])
        with pytest.raises(ValueError):
            Instance(query, (r2, r1))

    @pytest.mark.parametrize(
        "b_domain",
        [Domain.integers(1), Domain.integers(3), Domain.of_size(4, prefix="b")],
        ids=["one-value", "three-values", "relabelled"],
    )
    def test_relation_over_another_domain_rejected(self, b_domain):
        # Accepted, a one-value B read join size 64 and B-marginals 16 / 16 /
        # 16 / 16 on a join of 16 tuples that all have B = 0.
        query = two_table_query(4, 4, 4)
        schema = RelationSchema(
            "R2", (Attribute("B", b_domain), query.relations[1].attributes[1])
        )
        r1 = Relation.full(query.relations[0])
        r2 = Relation.full(schema)
        with pytest.raises(ValueError, match="'R2'.*'B'"):
            Instance(query, (r1, r2))


class TestAccessAndUpdate:
    def test_relation_by_index_and_name(self, query):
        instance = Instance.from_tuple_lists(query, {"R1": [(0, 0)]})
        assert instance.relation(0) is instance.relation("R1")
        assert instance.schema("R2").name == "R2"
        assert instance.schema(1).name == "R2"

    def test_iteration(self, query):
        instance = Instance.empty(query)
        assert [relation.name for relation in instance] == ["R1", "R2"]

    def test_with_relation(self, query):
        instance = Instance.empty(query)
        replacement = Relation.from_tuples(query.relations[0], [(1, 1)])
        updated = instance.with_relation("R1", replacement)
        assert updated.relation("R1").total() == 1
        assert instance.relation("R1").total() == 0

    def test_with_delta(self, query):
        instance = Instance.empty(query)
        updated = instance.with_delta("R2", (2, 2), +3)
        assert updated.relation("R2").multiplicity((2, 2)) == 3

    def test_equality(self, query):
        first = Instance.from_tuple_lists(query, {"R1": [(0, 0)]})
        second = Instance.from_tuple_lists(query, {"R1": [(0, 0)]})
        third = Instance.from_tuple_lists(query, {"R1": [(1, 0)]})
        assert first == second
        assert first != third

    def test_repr(self, query):
        instance = Instance.from_tuple_lists(query, {"R1": [(0, 0)]})
        assert "n=1" in repr(instance)
