"""Multi-table database instances.

An :class:`Instance` bundles a :class:`~repro.relational.hypergraph.JoinQuery`
with one :class:`~repro.relational.relation.Relation` per hyperedge, i.e. the
``I = (R_1, ..., R_m)`` of the paper.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.relational.hypergraph import JoinQuery
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema


def _require_known_relations(query: JoinQuery, by_relation: Mapping[str, object]) -> None:
    unknown = set(by_relation) - set(query.relation_names)
    if unknown:
        raise ValueError(
            f"unknown relations {sorted(unknown)}; the query's are {list(query.relation_names)}"
        )


class Instance:
    """A database instance over a join query.

    Parameters
    ----------
    query:
        The join query hypergraph.
    relations:
        One relation per hyperedge, in the same order as ``query.relations``.
        Each relation's schema must match the corresponding hyperedge: the
        same name and the same attributes, names and domains, in order.
    """

    __slots__ = ("_query", "_relations")

    def __init__(self, query: JoinQuery, relations: Sequence[Relation]):
        relations = tuple(relations)
        if len(relations) != query.num_relations:
            raise ValueError(
                f"expected {query.num_relations} relations, got {len(relations)}"
            )
        for schema, relation in zip(query.relations, relations):
            if relation.schema is schema:  # partition buckets reuse the query's schemas
                continue
            if relation.schema.name != schema.name:
                raise ValueError(
                    f"relation order mismatch: expected {schema.name!r}, "
                    f"got {relation.schema.name!r}"
                )
            if relation.schema.attribute_names != schema.attribute_names:
                raise ValueError(
                    f"relation {schema.name!r} attribute mismatch: expected "
                    f"{schema.attribute_names}, got {relation.schema.attribute_names}"
                )
            for expected, given in zip(schema.attributes, relation.attributes):
                if expected.domain != given.domain:
                    raise ValueError(
                        f"relation {schema.name!r}: the domain of attribute "
                        f"{expected.name!r} differs from the query's (sizes "
                        f"{expected.domain.size} vs {given.domain.size})"
                    )
        self._query = query
        self._relations = relations

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, query: JoinQuery) -> "Instance":
        return cls(query, tuple(Relation.empty(schema) for schema in query.relations))

    @classmethod
    def from_tuple_lists(
        cls, query: JoinQuery, tuples_by_relation: Mapping[str, Iterable[tuple]]
    ) -> "Instance":
        """Build an instance from ``{relation_name: iterable of value tuples}``.

        A relation left out is empty; a name that is no relation of the query raises.
        """
        _require_known_relations(query, tuples_by_relation)
        relations = []
        for schema in query.relations:
            tuples = tuples_by_relation.get(schema.name, ())
            relations.append(Relation.from_tuples(schema, tuples))
        return cls(query, relations)

    @classmethod
    def from_frequencies(
        cls, query: JoinQuery, frequencies_by_relation: Mapping[str, np.ndarray]
    ) -> "Instance":
        """Build an instance from ``{relation_name: dense frequency array}``.

        A relation left out is empty; a name that is no relation of the query raises.
        """
        _require_known_relations(query, frequencies_by_relation)
        relations = []
        for schema in query.relations:
            freq = frequencies_by_relation.get(schema.name)
            if freq is None:
                relations.append(Relation.empty(schema))
            else:
                relations.append(Relation(schema, freq))
        return cls(query, relations)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def query(self) -> JoinQuery:
        return self._query

    @property
    def relations(self) -> tuple[Relation, ...]:
        return self._relations

    @property
    def num_relations(self) -> int:
        return len(self._relations)

    def relation(self, name_or_index: str | int) -> Relation:
        if isinstance(name_or_index, int):
            return self._relations[name_or_index]
        return self._relations[self._query.relation_index(name_or_index)]

    def schema(self, name_or_index: str | int) -> RelationSchema:
        if isinstance(name_or_index, int):
            return self._query.relations[name_or_index]
        return self._query.relation(name_or_index)

    def total_size(self) -> int:
        """The input size ``n``: total multiplicity summed over all relations."""
        return sum(relation.total() for relation in self._relations)

    def relation_sizes(self) -> dict[str, int]:
        return {relation.name: relation.total() for relation in self._relations}

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations)

    # ------------------------------------------------------------------ #
    # functional updates
    # ------------------------------------------------------------------ #
    def with_relation(self, name_or_index: str | int, relation: Relation) -> "Instance":
        """Return a copy of the instance with one relation replaced."""
        index = (
            name_or_index
            if isinstance(name_or_index, int)
            else self._query.relation_index(name_or_index)
        )
        relations = list(self._relations)
        relations[index] = relation
        return Instance(self._query, relations)

    def with_delta(self, name_or_index: str | int, record: tuple, delta: int) -> "Instance":
        """Return a neighbouring-style copy with one tuple's multiplicity changed."""
        index = (
            name_or_index
            if isinstance(name_or_index, int)
            else self._query.relation_index(name_or_index)
        )
        return self.with_relation(index, self._relations[index].with_delta(record, delta))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        same_query = self._query is other._query or (
            self._query.attribute_names == other._query.attribute_names
            and self._query.relation_names == other._query.relation_names
        )
        return same_query and all(a == b for a, b in zip(self._relations, other._relations))

    def __repr__(self) -> str:
        sizes = ", ".join(f"{r.name}={r.total()}" for r in self._relations)
        return f"Instance(n={self.total_size()}, {sizes})"
