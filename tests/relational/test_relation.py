"""Unit tests for frequency-annotated relations."""

import numpy as np
import pytest

from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Domain, RelationSchema


@pytest.fixture
def schema() -> RelationSchema:
    return RelationSchema(
        "R", (Attribute("A", Domain.integers(3)), Attribute("B", Domain.integers(4)))
    )


class TestConstruction:
    def test_empty(self, schema):
        relation = Relation.empty(schema)
        assert relation.total() == 0
        assert relation.support_size() == 0
        assert relation.shape == (3, 4)

    def test_from_tuples_multiset(self, schema):
        relation = Relation.from_tuples(schema, [(0, 1), (0, 1), (2, 3)])
        assert relation.total() == 3
        assert relation.multiplicity((0, 1)) == 2
        assert relation.multiplicity((2, 3)) == 1
        assert relation.multiplicity((1, 1)) == 0

    def test_full(self, schema):
        relation = Relation.full(schema, 2)
        assert relation.total() == 2 * 12
        assert relation.support_size() == 12

    def test_shape_mismatch_rejected(self, schema):
        with pytest.raises(ValueError):
            Relation(schema, np.zeros((3, 3), dtype=np.int64))

    def test_negative_frequencies_rejected(self, schema):
        freq = np.zeros((3, 4), dtype=np.int64)
        freq[0, 0] = -1
        with pytest.raises(ValueError):
            Relation(schema, freq)

    def test_non_integral_frequencies_rejected(self, schema):
        freq = np.zeros((3, 4))
        freq[0, 0] = 0.5
        with pytest.raises(ValueError):
            Relation(schema, freq)

    @pytest.mark.parametrize(
        "value, dtype",
        [(np.inf, np.float64), (1e19, np.float64), (2**63, np.uint64)],
        ids=["infinite", "float-above-int64", "uint64-above-int64"],
    )
    def test_frequencies_outside_int64_rejected(self, schema, value, dtype):
        # The int64 cast would store each as -2**63, past the sign check.
        freq = np.ones((3, 4), dtype=dtype)
        freq[0, 0] = value
        with pytest.raises(ValueError):
            Relation(schema, freq)

    def test_float_but_integral_frequencies_accepted(self, schema):
        freq = np.zeros((3, 4))
        freq[0, 0] = 2.0
        relation = Relation(schema, freq)
        assert relation.multiplicity((0, 0)) == 2

    def test_wrong_arity_tuple_rejected(self, schema):
        with pytest.raises(ValueError):
            Relation.from_tuples(schema, [(0,)])

    def test_frequencies_read_only(self, schema):
        relation = Relation.from_tuples(schema, [(0, 0)])
        with pytest.raises(ValueError):
            relation.frequencies[0, 0] = 7




class TestAccessors:
    def test_tuples_iteration(self, schema):
        relation = Relation.from_tuples(schema, [(0, 1), (0, 1), (2, 0)])
        listed = dict(relation.tuples())
        assert listed == {(0, 1): 2, (2, 0): 1}

    def test_equality(self, schema):
        first = Relation.from_tuples(schema, [(0, 1)])
        second = Relation.from_tuples(schema, [(0, 1)])
        third = Relation.from_tuples(schema, [(1, 1)])
        assert first == second
        assert first != third

    def test_total_past_2_to_63_is_exact(self):
        schema = RelationSchema(
            "R", (Attribute("A", Domain.integers(2)), Attribute("B", Domain.integers(1)))
        )
        assert Relation(schema, [[2**63 - 1], [1]]).total() == 2**63

    def test_repr_contains_name_and_total(self, schema):
        relation = Relation.from_tuples(schema, [(0, 1)])
        assert "R" in repr(relation)
        assert "total=1" in repr(relation)


class TestAlgebra:
    def test_with_delta_add_and_remove(self, schema):
        relation = Relation.from_tuples(schema, [(0, 1)])
        added = relation.with_delta((0, 1), +1)
        assert added.multiplicity((0, 1)) == 2
        removed = added.with_delta((0, 1), -2)
        assert removed.multiplicity((0, 1)) == 0
        # The original is untouched (immutability).
        assert relation.multiplicity((0, 1)) == 1

    def test_with_delta_below_zero_rejected(self, schema):
        relation = Relation.empty(schema)
        with pytest.raises(ValueError):
            relation.with_delta((0, 0), -1)

    def test_restrict_joint(self, schema):
        relation = Relation.from_tuples(schema, [(0, 1), (1, 2), (2, 3)])
        mask = np.zeros((3, 4), dtype=bool)
        mask[0, 1] = True
        mask[2, 3] = True
        restricted = relation.restrict_joint(["A", "B"], mask)
        assert restricted.total() == 2
        assert restricted.multiplicity((1, 2)) == 0

    def test_restrict_joint_respects_attribute_order(self, schema):
        relation = Relation.from_tuples(schema, [(0, 1), (1, 2)])
        mask_ba = np.zeros((4, 3), dtype=bool)
        mask_ba[1, 0] = True  # (B=1, A=0)
        restricted = relation.restrict_joint(["B", "A"], mask_ba)
        assert restricted.multiplicity((0, 1)) == 1
        assert restricted.multiplicity((1, 2)) == 0

    def test_restrict_joint_empty_attribute_list(self, schema):
        relation = Relation.from_tuples(schema, [(0, 1)])
        kept = relation.restrict_joint([], np.asarray(True))
        dropped = relation.restrict_joint([], np.asarray(False))
        assert kept.total() == 1
        assert dropped.total() == 0

    def test_partition_by_restrict_joint_covers_relation(self, schema):
        relation = Relation.from_tuples(schema, [(0, 1), (1, 2), (2, 3), (2, 3)])
        mask = np.zeros((3, 4), dtype=bool)
        mask[:2, :] = True
        part1 = relation.restrict_joint(["A", "B"], mask)
        part2 = relation.restrict_joint(["A", "B"], ~mask)
        assert part1.total() + part2.total() == relation.total()
        assert relation.with_frequencies(part1.frequencies + part2.frequencies) == relation
