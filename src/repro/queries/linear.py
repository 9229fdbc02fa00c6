"""Linear queries over multi-table joins.

``TableQuery`` is a single weight function ``q_i : D_i -> [-1, +1]`` on one
relation's domain; ``ProductQuery`` bundles one table query per relation and
is the paper's linear query ``q = (q_1, ..., q_m)`` with answer

    q(I) = Σ_{t = (t_1, ..., t_m)} ρ(t) · Π_i q_i(t_i) · R_i(t_i).

Evaluation against instances uses einsum over the per-relation arrays (never
materialising the join); evaluation against a released synthetic dataset uses
the broadcast product of the weight arrays over the joint domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.relational.hypergraph import JoinQuery
from repro.relational.instance import Instance
from repro.relational.join import _letters_for, expand_to_joint
from repro.relational.schema import RelationSchema


@dataclass(frozen=True)
class TableQuery:
    """A per-relation weight function ``q_i : D_i -> [-1, +1]``.

    Parameters
    ----------
    relation_name:
        Name of the relation the weights apply to.
    weights:
        Array of shape equal to the relation's domain shape with entries in
        ``[-1, +1]``.
    """

    relation_name: str
    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        if np.any(np.isnan(weights)):
            raise ValueError("query weights must not contain NaN")
        if weights.size and (weights.min() < -1.0 - 1e-9 or weights.max() > 1.0 + 1e-9):
            raise ValueError(
                f"query weights for relation {self.relation_name!r} must lie in [-1, 1]; "
                f"got range [{weights.min()}, {weights.max()}]"
            )
        object.__setattr__(self, "weights", weights)

    @classmethod
    def all_one(cls, schema: RelationSchema) -> "TableQuery":
        """The all-+1 weight function (the counting query component).

        Its weights are a read-only broadcast of a single 1.0, so an
        all-one relation holds one element however large its domain.
        """
        return cls(schema.name, np.broadcast_to(1.0, schema.shape))

    @classmethod
    def indicator(
        cls, schema: RelationSchema, predicate: Mapping[str, Sequence[object]]
    ) -> "TableQuery":
        """Indicator of records matching an attribute-value predicate.

        ``predicate`` maps attribute names to the collection of allowed
        values; a record gets weight 1 when every listed attribute takes one
        of its allowed values, and 0 otherwise.
        """
        weights = np.ones(schema.shape, dtype=float)
        for attribute_name, allowed_values in predicate.items():
            attribute = schema.attribute(attribute_name)
            axis = schema.axis_of(attribute_name)
            mask = np.zeros(attribute.domain.size, dtype=float)
            for value in allowed_values:
                mask[attribute.domain.index_of(value)] = 1.0
            shape = [1] * len(schema.shape)
            shape[axis] = attribute.domain.size
            weights = weights * mask.reshape(shape)
        return cls(schema.name, weights)

    def is_all_one(self) -> bool:
        return bool(np.all(self.weights == 1.0))


class ProductQuery:
    """A multi-table linear query ``q = (q_1, ..., q_m)``.

    Relations without an explicit :class:`TableQuery` default to the all-+1
    weight function, so a query touching only some relations can be written
    compactly.
    """

    __slots__ = ("_join_query", "_table_queries", "name")

    def __init__(
        self,
        join_query: JoinQuery,
        table_queries: Sequence[TableQuery] | Mapping[str, TableQuery] = (),
        name: str = "q",
    ):
        self._join_query = join_query
        self.name = name
        if isinstance(table_queries, Mapping):
            provided = dict(table_queries)
        else:
            provided = {query.relation_name: query for query in table_queries}
        unknown = set(provided) - set(join_query.relation_names)
        if unknown:
            raise ValueError(f"table queries reference unknown relations: {sorted(unknown)}")
        queries: list[TableQuery] = []
        for schema in join_query.relations:
            query = provided.get(schema.name)
            if query is None:
                query = TableQuery.all_one(schema)
            if query.weights.shape != schema.shape:
                raise ValueError(
                    f"weights for relation {schema.name!r} have shape "
                    f"{query.weights.shape}, expected {schema.shape}"
                )
            queries.append(query)
        self._table_queries = tuple(queries)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def join_query(self) -> JoinQuery:
        return self._join_query

    @property
    def table_queries(self) -> tuple[TableQuery, ...]:
        return self._table_queries

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, instance: Instance) -> float:
        """Exact answer ``q(I)`` computed by einsum over weighted relations."""
        require_same_join(self._join_query, instance.query)
        letters = _letters_for(self._join_query)
        operands = []
        terms = []
        for relation, query in zip(instance.relations, self._table_queries):
            operands.append(relation.frequencies * query.weights)
            terms.append("".join(letters[name] for name in relation.attribute_names))
        subscript = ",".join(terms) + "->"
        return float(np.einsum(subscript, *operands))

    def joint_values(self) -> np.ndarray:
        """The query value ``Π_i q_i(π_{x_i} t)`` for every joint tuple ``t ∈ D``.

        Returns an array over the joint domain (one axis per query attribute)
        with entries in ``[-1, +1]`` — the vector used by the PMW update and by
        evaluation against synthetic datasets.
        """
        values = np.ones(self._join_query.shape, dtype=float)
        for schema, query in zip(self._join_query.relations, self._table_queries):
            expanded = expand_to_joint(self._join_query, query.weights, schema.attribute_names)
            values = values * expanded
        return values

    def evaluate_on_histogram(self, histogram: np.ndarray) -> float:
        """Answer ``q(F)`` where ``histogram`` is a (synthetic) joint frequency array."""
        if histogram.shape != self._join_query.shape:
            raise ValueError(
                f"histogram shape {histogram.shape} does not match joint domain "
                f"shape {self._join_query.shape}"
            )
        return float(np.sum(histogram * self.joint_values()))

    def __repr__(self) -> str:
        return f"ProductQuery({self.name!r})"


def require_same_join(expected: JoinQuery, given: JoinQuery) -> None:
    """Raise ``ValueError`` unless ``given`` structurally matches ``expected``.

    Sharing relation *names* is not enough: mismatched attribute domains
    or per-relation attribute lists would otherwise surface as an opaque
    shape error, or broadcast into a silent misevaluation.  This compares
    relation names, attribute names, per-relation attribute lists, and
    every attribute domain.
    """
    if given is expected:
        return
    if expected.relation_names != given.relation_names:
        raise ValueError(
            f"queries and instance are defined over different join queries: "
            f"relations {expected.relation_names} vs {given.relation_names}"
        )
    if expected.attribute_names != given.attribute_names:
        raise ValueError(
            f"queries and instance are defined over different join queries: "
            f"attributes {expected.attribute_names} vs {given.attribute_names}"
        )
    for name in expected.attribute_names:
        if expected.attribute(name).domain != given.attribute(name).domain:
            raise ValueError(
                f"queries and instance disagree on the domain of attribute "
                f"{name!r} (sizes {expected.attribute(name).domain.size} vs "
                f"{given.attribute(name).domain.size})"
            )
    for own_schema, other_schema in zip(expected.relations, given.relations):
        if own_schema.attribute_names != other_schema.attribute_names:
            raise ValueError(
                f"queries and instance disagree on the attributes of relation "
                f"{own_schema.name!r}: {own_schema.attribute_names} vs "
                f"{other_schema.attribute_names}"
            )


def all_one_query(join_query: JoinQuery, name: str = "count") -> ProductQuery:
    """The counting query: every table component is all-+1."""
    return ProductQuery(join_query, (), name=name)


# The paper calls the all-one query ``count``; keep both names exported.
counting_query = all_one_query
