"""Unit tests for natural-join evaluation."""

import numpy as np
import pytest

from repro.relational.hypergraph import (
    path3_query,
    single_table_query,
    triangle_query,
    two_table_query,
)
from repro.relational.instance import Instance
from repro.relational.join import expand_to_joint, grouped_join_size, join_size
from tests.relational.test_oracles import join_result, join_size_brute_force


class TestTwoTableJoin:
    def test_simple_join_size(self, two_table_instance):
        assert join_size(two_table_instance) == join_size_brute_force(two_table_instance)

    def test_join_result_sums_to_join_size(self, two_table_instance):
        joint = join_result(two_table_instance)
        assert int(joint.sum()) == join_size(two_table_instance)

    def test_join_result_entry(self):
        query = two_table_query(2, 2, 2)
        instance = Instance.from_tuple_lists(
            query, {"R1": [(0, 0), (0, 0)], "R2": [(0, 1)]}
        )
        joint = join_result(instance)
        # R1(0,0) has multiplicity 2, R2(0,1) multiplicity 1 → Join(0,0,1) = 2.
        assert joint[0, 0, 1] == 2
        assert joint.sum() == 2

    def test_empty_relation_gives_empty_join(self):
        query = two_table_query(3, 3, 3)
        instance = Instance.from_tuple_lists(query, {"R1": [(0, 0)]})
        assert join_size(instance) == 0
        assert np.all(join_result(instance) == 0)

    def test_cross_product_when_single_join_value(self):
        query = two_table_query(4, 1, 4)
        instance = Instance.from_tuple_lists(
            query,
            {"R1": [(a, 0) for a in range(4)], "R2": [(0, c) for c in range(3)]},
        )
        assert join_size(instance) == 12

    def test_multiplicities_multiply(self):
        query = two_table_query(2, 2, 2)
        instance = Instance.from_frequencies(
            query,
            {
                "R1": np.array([[3, 0], [0, 0]]),
                "R2": np.array([[5, 0], [0, 0]]),
            },
        )
        assert join_size(instance) == 15


class TestMultiWayJoin:
    def test_path3_matches_brute_force(self, path3_instance):
        assert join_size(path3_instance) == join_size_brute_force(path3_instance)

    def test_triangle_join(self):
        query = triangle_query(3)
        instance = Instance.from_tuple_lists(
            query,
            {
                "R1": [(0, 1), (0, 2)],
                "R2": [(1, 2), (2, 2)],
                "R3": [(0, 2)],
            },
        )
        # Triangles: (A=0,B=1,C=2) and (A=0,B=2,C=2).
        assert join_size(instance) == 2
        assert join_size(instance) == join_size_brute_force(instance)

    def test_figure4_join(self, figure4_instance):
        assert join_size(figure4_instance) == join_size_brute_force(figure4_instance)


class TestGroupedJoinSize:
    def test_group_by_join_attribute(self, two_table_instance):
        grouped = grouped_join_size(two_table_instance, [0, 1], ["B"])
        joint = join_result(two_table_instance)
        assert np.array_equal(grouped, joint.sum(axis=(0, 2)))

    def test_group_by_empty_is_total(self, two_table_instance):
        assert grouped_join_size(two_table_instance, [0, 1], []) == join_size(
            two_table_instance
        )

    def test_subset_of_relations(self, two_table_instance):
        # Grouping R2(B, C) alone by B gives deg_2(b), its sum over C.
        grouped = grouped_join_size(two_table_instance, [1], ["B"])
        expected = two_table_instance.relation("R2").frequencies.sum(axis=1)
        assert np.array_equal(grouped, expected)

    def test_empty_subset(self, two_table_instance):
        assert grouped_join_size(two_table_instance, [], []) == 1

    def test_group_order_controls_axes(self, path3_instance):
        bc = grouped_join_size(path3_instance, [0, 1, 2], ["B", "C"])
        cb = grouped_join_size(path3_instance, [0, 1, 2], ["C", "B"])
        assert np.array_equal(bc, cb.T)


class TestOneRelationDegrees:
    """The degrees ``deg_{i,y}`` of one relation R(A, B) over 3 × 4 values."""

    @staticmethod
    def _instance(tuples):
        query = single_table_query({"A": 3, "B": 4}, name="R")
        return Instance.from_tuple_lists(query, {"R": tuples})

    def test_degrees_of_one_attribute(self):
        instance = self._instance([(0, 1), (0, 2), (1, 1)])
        assert grouped_join_size(instance, [0], ["A"]).tolist() == [2, 1, 0]

    def test_attribute_order_controls_axes(self):
        instance = self._instance([(0, 1), (0, 2), (1, 1)])
        ab = grouped_join_size(instance, [0], ["A", "B"])
        ba = grouped_join_size(instance, [0], ["B", "A"])
        assert ab.shape == (3, 4)
        assert ba.shape == (4, 3)
        assert np.array_equal(ab, ba.T)

    def test_all_attributes_give_the_frequencies(self):
        instance = self._instance([(0, 1), (0, 1), (2, 3)])
        grouped = grouped_join_size(instance, [0], ["A", "B"])
        assert np.array_equal(grouped, instance.relation("R").frequencies)

    def test_no_attribute_gives_the_total(self):
        instance = self._instance([(0, 1), (1, 2)])
        assert grouped_join_size(instance, [0], []) == 2


class TestCountsPast2To63:
    """With every multiplicity 2^32, R1(A, B) ⋈ R2(B, C) over 2 × 1 × 2 counts 2^66."""

    @pytest.fixture
    def instance(self):
        query = two_table_query(2, 1, 2)
        return Instance.from_frequencies(
            query, {schema.name: np.full(schema.shape, 2**32) for schema in query.relations}
        )

    def test_join_size_is_exact(self, instance):
        assert join_size(instance) == 2**66
        assert grouped_join_size(instance, [0, 1], []) == 2**66

    def test_grouped_arrays_refuse_to_wrap(self, instance):
        with pytest.raises(OverflowError, match="R1, R2"):
            grouped_join_size(instance, [0, 1], ["B"])
        assert grouped_join_size(instance, [0], ["B"]).tolist() == [2**33]


class TestHelpers:
    def test_expand_to_joint_broadcasting(self):
        query = two_table_query(2, 3, 4)
        array = np.arange(12).reshape(3, 4)  # over (B, C)
        expanded = expand_to_joint(query, array, ["B", "C"])
        assert expanded.shape == (1, 3, 4)
        # Attribute order different from the query's order is handled.
        transposed = expand_to_joint(query, array.T, ["C", "B"])
        assert np.array_equal(expanded, transposed)
