"""Join query hypergraphs, boundaries, and hierarchical attribute trees.

A (natural) join query is the hypergraph ``H = (x, {x_1, ..., x_m})`` of the
paper: a set of attributes together with one hyperedge (attribute subset) per
relation.  This module provides:

* :class:`JoinQuery` — the hypergraph plus the attribute domains, with the
  structural helpers needed by the sensitivity machinery (``atom`` sets,
  boundaries ``∂E``, residual connectivity) and by the hierarchical
  partitioning of Section 4.2 (hierarchy test, attribute tree).  The
  residual join's components are a search over the relations' attribute
  sets, so the module needs no graph library.
* :class:`AttributeTree` — the rooted attribute tree of a hierarchical join,
  in which every relation corresponds to a root-to-node path (Figure 4).
* Factory helpers for the query shapes used throughout the paper and the
  benchmarks (two-table, chains, stars, the Figure-4 query, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.relational.schema import Attribute, Domain, RelationSchema


@dataclass(frozen=True)
class AttributeTree:
    """Rooted attribute tree (forest with a virtual root) of a hierarchical join.

    ``parent`` maps an attribute name to its parent attribute name, or ``None``
    for roots.  Attributes with identical ``atom`` sets are chained in a fixed
    deterministic order so every relation still corresponds to a root-to-node
    path.
    """

    parent: Mapping[str, str | None]
    order: tuple[str, ...]

    def ancestors(self, name: str) -> tuple[str, ...]:
        """Strict ancestors of ``name``, listed root-first."""
        chain: list[str] = []
        current = self.parent[name]
        while current is not None:
            chain.append(current)
            current = self.parent[current]
        return tuple(reversed(chain))

    def depth(self, name: str) -> int:
        return len(self.ancestors(name))

    def bottom_up_order(self) -> tuple[str, ...]:
        """Attributes ordered so every node appears after all of its children."""
        return tuple(sorted(self.order, key=lambda name: -self.depth(name)))


class JoinQuery:
    """A multi-way natural join query ``H = (x, {x_1, ..., x_m})``.

    Parameters
    ----------
    attributes:
        All attributes appearing in the query, each with its domain.  The
        order fixes the axis order of joint-domain arrays (join results,
        synthetic datasets).
    relations:
        One :class:`RelationSchema` per hyperedge.  Every relation attribute
        must be one of ``attributes`` (same name, same domain).
    """

    def __init__(self, attributes: Sequence[Attribute], relations: Sequence[RelationSchema]):
        self._attributes = tuple(attributes)
        self._relations = tuple(relations)
        if not self._attributes:
            raise ValueError("a join query needs at least one attribute")
        if not self._relations:
            raise ValueError("a join query needs at least one relation")
        names = [attribute.name for attribute in self._attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in join query: {names}")
        self._attr_by_name = {attribute.name: attribute for attribute in self._attributes}
        self._axis_by_name = {attribute.name: axis for axis, attribute in enumerate(self._attributes)}
        relation_names = [schema.name for schema in self._relations]
        if len(set(relation_names)) != len(relation_names):
            raise ValueError(f"duplicate relation names in join query: {relation_names}")
        for schema in self._relations:
            for attribute in schema.attributes:
                declared = self._attr_by_name.get(attribute.name)
                if declared is None:
                    raise ValueError(
                        f"relation {schema.name!r} uses attribute {attribute.name!r} "
                        "that is not declared in the join query"
                    )
                if declared.domain != attribute.domain:
                    raise ValueError(
                        f"attribute {attribute.name!r} has a different domain in "
                        f"relation {schema.name!r} than in the join query"
                    )
        covered = {a.name for schema in self._relations for a in schema.attributes}
        missing = set(names) - covered
        if missing:
            raise ValueError(f"attributes {sorted(missing)} are not used by any relation")

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(attribute.name for attribute in self._attributes)

    @property
    def relations(self) -> tuple[RelationSchema, ...]:
        return self._relations

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(schema.name for schema in self._relations)

    @property
    def num_relations(self) -> int:
        return len(self._relations)

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the joint domain ``D = dom(x)`` (one axis per attribute)."""
        return tuple(attribute.domain.size for attribute in self._attributes)

    @property
    def joint_domain_size(self) -> int:
        size = 1
        for attribute in self._attributes:
            size *= attribute.domain.size
        return size

    def attribute(self, name: str) -> Attribute:
        try:
            return self._attr_by_name[name]
        except KeyError:
            raise KeyError(f"join query has no attribute {name!r}") from None

    def axis_of(self, name: str) -> int:
        try:
            return self._axis_by_name[name]
        except KeyError:
            raise KeyError(f"join query has no attribute {name!r}") from None

    def relation(self, name: str) -> RelationSchema:
        for schema in self._relations:
            if schema.name == name:
                return schema
        raise KeyError(f"join query has no relation {name!r}")

    def relation_index(self, name: str) -> int:
        for index, schema in enumerate(self._relations):
            if schema.name == name:
                return index
        raise KeyError(f"join query has no relation {name!r}")

    # ------------------------------------------------------------------ #
    # structural helpers
    # ------------------------------------------------------------------ #
    def atom(self, attribute_name: str) -> frozenset[int]:
        """``atom(x)``: indices of the relations containing the attribute."""
        if attribute_name not in self._attr_by_name:
            raise KeyError(f"join query has no attribute {attribute_name!r}")
        return frozenset(
            index
            for index, schema in enumerate(self._relations)
            if schema.has_attribute(attribute_name)
        )

    def boundary(self, relation_subset: Iterable[int]) -> frozenset[str]:
        """``∂E``: attributes shared between relations in ``E`` and outside ``E``."""
        subset = frozenset(relation_subset)
        self._check_subset(subset)
        outside = frozenset(range(self.num_relations)) - subset
        inside_attrs = {
            name for index in subset for name in self._relations[index].attribute_names
        }
        outside_attrs = {
            name for index in outside for name in self._relations[index].attribute_names
        }
        return frozenset(inside_attrs & outside_attrs)

    def attributes_of(self, relation_subset: Iterable[int]) -> frozenset[str]:
        """Union of attribute sets of the relations in the subset (``∪_{i∈E} x_i``)."""
        subset = frozenset(relation_subset)
        self._check_subset(subset)
        return frozenset(
            name for index in subset for name in self._relations[index].attribute_names
        )

    def common_attributes_of(self, relation_subset: Iterable[int]) -> frozenset[str]:
        """Intersection of attribute sets of the relations in the subset (``∩_{i∈E} x_i``)."""
        subset = frozenset(relation_subset)
        self._check_subset(subset)
        if not subset:
            return frozenset()
        sets = [frozenset(self._relations[index].attribute_names) for index in subset]
        common = sets[0]
        for attrs in sets[1:]:
            common &= attrs
        return frozenset(common)

    def _check_subset(self, subset: frozenset[int]) -> None:
        for index in subset:
            if not 0 <= index < self.num_relations:
                raise IndexError(f"relation index {index} out of range")

    def connected_components(
        self, relation_subset: Iterable[int], removed_attributes: Iterable[str] = ()
    ) -> tuple[frozenset[int], ...]:
        """Connected sub-queries ``C_E`` of the residual join ``H_{E, y}``.

        Two relations of ``E`` are adjacent when they still share an attribute
        once ``removed_attributes`` are removed.  A component grows from its
        smallest relation index by absorbing every pending relation that
        shares an attribute with it, and components come in order of their
        smallest index.
        """
        removed = frozenset(removed_attributes)
        pending = {
            index: frozenset(self._relations[index].attribute_names) - removed
            for index in sorted(frozenset(relation_subset))
        }
        components = []
        while pending:
            start = next(iter(pending))
            members, reached = {start}, set(pending.pop(start))
            while joined := [index for index, names in pending.items() if names & reached]:
                for index in joined:
                    members.add(index)
                    reached |= pending.pop(index)
            components.append(frozenset(members))
        return tuple(components)

    # ------------------------------------------------------------------ #
    # hierarchy
    # ------------------------------------------------------------------ #
    def is_hierarchical(self) -> bool:
        """Check the hierarchical property: atoms are nested or disjoint pairwise."""
        atoms = {name: self.atom(name) for name in self.attribute_names}
        names = list(atoms)
        for position, first in enumerate(names):
            for second in names[position + 1 :]:
                a, b = atoms[first], atoms[second]
                if not (a <= b or b <= a or not (a & b)):
                    return False
        return True

    def attribute_tree(self) -> AttributeTree:
        """Build the attribute tree of a hierarchical join (Figure 4).

        Attributes are ordered so that an attribute's parent is the attribute
        with the smallest strictly-containing ``atom`` set; attributes sharing
        the same ``atom`` set are chained deterministically (by query order)
        so relations remain root-to-node paths.

        Raises
        ------
        ValueError
            If the join query is not hierarchical.
        """
        if not self.is_hierarchical():
            raise ValueError("attribute tree is only defined for hierarchical joins")
        atoms = {name: self.atom(name) for name in self.attribute_names}
        # Group attributes with identical atom sets and chain them.
        groups: dict[frozenset[int], list[str]] = {}
        for name in self.attribute_names:
            groups.setdefault(atoms[name], []).append(name)

        parent: dict[str, str | None] = {}
        group_keys = list(groups)
        for key in group_keys:
            members = groups[key]
            # Chain members of the same group: member[j] is the parent of member[j+1].
            for previous, current in zip(members, members[1:]):
                parent[current] = previous
            head = members[0]
            # Parent of the head: tail of the smallest strictly-containing group.
            containing = [other for other in group_keys if key < other]
            if containing:
                best = min(containing, key=lambda other: (len(other), sorted(other)))
                parent[head] = groups[best][-1]
            else:
                parent[head] = None
        return AttributeTree(parent=parent, order=self.attribute_names)

    def __repr__(self) -> str:
        edges = ", ".join(
            f"{schema.name}({', '.join(schema.attribute_names)})" for schema in self._relations
        )
        return f"JoinQuery([{edges}])"


# ---------------------------------------------------------------------- #
# factory helpers used across examples, tests, and benchmarks
# ---------------------------------------------------------------------- #
def two_table_query(
    size_a: int,
    size_b: int,
    size_c: int,
    *,
    names: tuple[str, str] = ("R1", "R2"),
    attribute_names: tuple[str, str, str] = ("A", "B", "C"),
) -> JoinQuery:
    """The paper's running two-table query ``R1(A, B) ⋈ R2(B, C)``."""
    a_name, b_name, c_name = attribute_names
    a = Attribute(a_name, Domain.integers(size_a))
    b = Attribute(b_name, Domain.integers(size_b))
    c = Attribute(c_name, Domain.integers(size_c))
    r1 = RelationSchema(names[0], (a, b))
    r2 = RelationSchema(names[1], (b, c))
    return JoinQuery((a, b, c), (r1, r2))


def chain_query(domain_sizes: Sequence[int]) -> JoinQuery:
    """A chain join ``R1(X0, X1) ⋈ R2(X1, X2) ⋈ ... ⋈ Rk(X_{k-1}, X_k)``.

    ``domain_sizes`` lists the domain size of each attribute ``X0..Xk``; the
    query has ``len(domain_sizes) - 1`` relations.
    """
    if len(domain_sizes) < 2:
        raise ValueError("a chain query needs at least two attributes")
    attributes = tuple(
        Attribute(f"X{i}", Domain.integers(size)) for i, size in enumerate(domain_sizes)
    )
    relations = tuple(
        RelationSchema(f"R{i + 1}", (attributes[i], attributes[i + 1]))
        for i in range(len(attributes) - 1)
    )
    return JoinQuery(attributes, relations)


def star_query(center_size: int, leaf_sizes: Sequence[int]) -> JoinQuery:
    """A star join: every relation shares the single centre attribute.

    ``R1(H, X1) ⋈ R2(H, X2) ⋈ ...`` — this is a hierarchical query.
    """
    if not leaf_sizes:
        raise ValueError("a star query needs at least one leaf")
    hub = Attribute("H", Domain.integers(center_size))
    leaves = tuple(
        Attribute(f"X{i}", Domain.integers(size)) for i, size in enumerate(leaf_sizes)
    )
    relations = tuple(RelationSchema(f"R{i + 1}", (hub, leaf)) for i, leaf in enumerate(leaves))
    return JoinQuery((hub,) + leaves, relations)


def triangle_query(size: int) -> JoinQuery:
    """The triangle join ``R1(A, B) ⋈ R2(B, C) ⋈ R3(A, C)`` (non-hierarchical)."""
    a = Attribute("A", Domain.integers(size))
    b = Attribute("B", Domain.integers(size))
    c = Attribute("C", Domain.integers(size))
    return JoinQuery(
        (a, b, c),
        (
            RelationSchema("R1", (a, b)),
            RelationSchema("R2", (b, c)),
            RelationSchema("R3", (a, c)),
        ),
    )


def path3_query(size_a: int, size_b: int, size_c: int, size_d: int) -> JoinQuery:
    """The three-table path ``R1(A, B) ⋈ R2(B, C) ⋈ R3(C, D)`` from Section 5."""
    a = Attribute("A", Domain.integers(size_a))
    b = Attribute("B", Domain.integers(size_b))
    c = Attribute("C", Domain.integers(size_c))
    d = Attribute("D", Domain.integers(size_d))
    return JoinQuery(
        (a, b, c, d),
        (
            RelationSchema("R1", (a, b)),
            RelationSchema("R2", (b, c)),
            RelationSchema("R3", (c, d)),
        ),
    )


def figure4_query(domain_size: int = 4) -> JoinQuery:
    """The hierarchical query of Figure 4.

    ``x = {A, B, C, D, F, G, K, L}`` with
    ``x1 = {A, B, D}``, ``x2 = {A, B, F}``, ``x3 = {A, B, G, K}``,
    ``x4 = {A, B, G, L}``, ``x5 = {A, C}``.
    """
    def attr(name: str) -> Attribute:
        return Attribute(name, Domain.integers(domain_size))

    a, b, c, d, f, g, k, l = (attr(n) for n in "ABCDFGKL")
    relations = (
        RelationSchema("R1", (a, b, d)),
        RelationSchema("R2", (a, b, f)),
        RelationSchema("R3", (a, b, g, k)),
        RelationSchema("R4", (a, b, g, l)),
        RelationSchema("R5", (a, c)),
    )
    return JoinQuery((a, b, c, d, f, g, k, l), relations)


def single_table_query(attribute_sizes: Mapping[str, int], *, name: str = "T") -> JoinQuery:
    """A degenerate one-relation query (the single-table setting of Theorem 1.3)."""
    attributes = tuple(
        Attribute(attr_name, Domain.integers(size)) for attr_name, size in attribute_sizes.items()
    )
    return JoinQuery(attributes, (RelationSchema(name, attributes),))
