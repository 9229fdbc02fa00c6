"""Unit tests for join-query hypergraphs and attribute trees."""

import pytest

from repro.relational.hypergraph import (
    JoinQuery,
    chain_query,
    figure4_query,
    path3_query,
    single_table_query,
    star_query,
    triangle_query,
    two_table_query,
)
from repro.relational.schema import Attribute, Domain, RelationSchema


class TestConstruction:
    def test_two_table_factory(self):
        query = two_table_query(3, 4, 5)
        assert query.num_relations == 2
        assert query.attribute_names == ("A", "B", "C")
        assert query.shape == (3, 4, 5)
        assert query.joint_domain_size == 60

    def test_chain_factory(self):
        query = chain_query([2, 3, 4, 5])
        assert query.num_relations == 3
        assert query.relation_names == ("R1", "R2", "R3")
        assert query.relation("R2").attribute_names == ("X1", "X2")

    def test_star_factory_is_hierarchical(self):
        query = star_query(4, [3, 3, 3])
        assert query.is_hierarchical()
        assert query.num_relations == 3

    def test_triangle_not_hierarchical(self):
        assert not triangle_query(3).is_hierarchical()

    def test_path3_not_hierarchical(self):
        assert not path3_query(3, 3, 3, 3).is_hierarchical()

    def test_single_table(self):
        query = single_table_query({"X": 4, "Y": 5})
        assert query.num_relations == 1
        assert query.joint_domain_size == 20

    def test_unknown_attribute_in_relation_rejected(self):
        a = Attribute("A", Domain.integers(2))
        b = Attribute("B", Domain.integers(2))
        schema = RelationSchema("R", (a, b))
        with pytest.raises(ValueError):
            JoinQuery((a,), (schema,))

    def test_unused_attribute_rejected(self):
        a = Attribute("A", Domain.integers(2))
        b = Attribute("B", Domain.integers(2))
        schema = RelationSchema("R", (a,))
        with pytest.raises(ValueError):
            JoinQuery((a, b), (schema,))

    def test_domain_mismatch_rejected(self):
        a = Attribute("A", Domain.integers(2))
        a_bigger = Attribute("A", Domain.integers(3))
        schema = RelationSchema("R", (a_bigger,))
        with pytest.raises(ValueError):
            JoinQuery((a,), (schema,))

    def test_duplicate_relation_names_rejected(self):
        a = Attribute("A", Domain.integers(2))
        schema = RelationSchema("R", (a,))
        with pytest.raises(ValueError):
            JoinQuery((a,), (schema, schema))


class TestStructure:
    def test_atom_sets(self):
        query = two_table_query(2, 2, 2)
        assert query.atom("A") == frozenset({0})
        assert query.atom("B") == frozenset({0, 1})
        assert query.atom("C") == frozenset({1})

    def test_boundary_two_table(self):
        query = two_table_query(2, 2, 2)
        assert query.boundary({0}) == frozenset({"B"})
        assert query.boundary({1}) == frozenset({"B"})
        assert query.boundary({0, 1}) == frozenset()
        assert query.boundary(()) == frozenset()

    def test_boundary_chain(self):
        query = path3_query(2, 2, 2, 2)
        assert query.boundary({0}) == frozenset({"B"})
        assert query.boundary({1}) == frozenset({"B", "C"})
        assert query.boundary({0, 1}) == frozenset({"C"})

    def test_attributes_of_and_common(self):
        query = path3_query(2, 2, 2, 2)
        assert query.attributes_of({0, 1}) == frozenset({"A", "B", "C"})
        assert query.common_attributes_of({0, 1}) == frozenset({"B"})
        assert query.common_attributes_of(()) == frozenset()

    def test_connected_components(self):
        query = path3_query(2, 2, 2, 2)
        components = query.connected_components({0, 2})
        assert set(map(frozenset, components)) == {frozenset({0}), frozenset({2})}
        assert len(query.connected_components({0, 1, 2})) == 1
        assert len(query.connected_components({0, 2})) == 2

    def test_residual_connectivity_after_attribute_removal(self):
        query = path3_query(2, 2, 2, 2)
        # Removing the shared attribute B disconnects R1 from R2.
        assert len(query.connected_components({0, 1}, removed_attributes={"B"})) == 2

    def test_relation_lookup(self):
        query = two_table_query(2, 2, 2)
        assert query.relation("R1").name == "R1"
        assert query.relation_index("R2") == 1
        with pytest.raises(KeyError):
            query.relation("nope")
        with pytest.raises(KeyError):
            query.relation_index("nope")

    def test_axis_of(self):
        query = two_table_query(2, 3, 4)
        assert query.axis_of("B") == 1
        with pytest.raises(KeyError):
            query.axis_of("Z")


class TestHierarchy:
    def test_two_table_is_hierarchical(self):
        assert two_table_query(2, 2, 2).is_hierarchical()

    def test_figure4_is_hierarchical(self):
        assert figure4_query(2).is_hierarchical()

    def test_figure4_attribute_tree_matches_paper(self):
        tree = figure4_query(2).attribute_tree()
        parent = dict(tree.parent)
        assert parent["A"] is None
        assert parent["B"] == "A"
        assert parent["C"] == "A"
        assert parent["D"] == "B"
        assert parent["F"] == "B"
        assert parent["G"] == "B"
        assert parent["K"] == "G"
        assert parent["L"] == "G"

    def test_relations_are_root_to_node_paths(self):
        query = figure4_query(2)
        tree = query.attribute_tree()
        for schema in query.relations:
            attrs = set(schema.attribute_names)
            # The deepest attribute's root path must equal the relation's attributes.
            deepest = max(schema.attribute_names, key=tree.depth)
            assert set(tree.ancestors(deepest)) | {deepest} == attrs

    def test_attribute_tree_rejects_non_hierarchical(self):
        with pytest.raises(ValueError):
            triangle_query(2).attribute_tree()

    def test_bottom_up_order_children_before_parents(self):
        tree = figure4_query(2).attribute_tree()
        order = tree.bottom_up_order()
        positions = {name: index for index, name in enumerate(order)}
        for name in order:
            parent = tree.parent[name]
            if parent is not None:
                assert positions[name] < positions[parent]

    def test_ancestors(self):
        tree = figure4_query(2).attribute_tree()
        assert tree.ancestors("K") == ("A", "B", "G")
        assert tree.ancestors("A") == ()
        assert tree.depth("L") == 3

    def test_star_tree(self):
        tree = star_query(3, [2, 2]).attribute_tree()
        assert tree.parent["H"] is None
        assert tree.parent["X0"] == "H"
        assert tree.parent["X1"] == "H"

    def test_equal_atom_attributes_are_chained(self):
        # Both attributes of a single-relation query share the same atom set
        # and must be chained so the relation is a root-to-node path.
        query = single_table_query({"X": 2, "Y": 2})
        tree = query.attribute_tree()
        parents = [tree.parent["X"], tree.parent["Y"]]
        assert parents.count(None) == 1
