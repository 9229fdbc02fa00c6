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

from dataclasses import dataclass, field
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
        ``[-1, +1]``.  The evaluator stacks them only over their *held*
        axes, those they are not broadcast along (stride zero).
    """

    relation_name: str
    weights: np.ndarray
    _all_one: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        held = self.held_weights()
        low, high = (float(held.min()), float(held.max())) if held.size else (1.0, 1.0)
        if np.isnan(low) or np.isnan(high):  # min and max propagate NaN
            raise ValueError("query weights must not contain NaN")
        if low < -1.0 - 1e-9 or high > 1.0 + 1e-9:
            raise ValueError(
                f"query weights for relation {self.relation_name!r} must lie in [-1, 1]; "
                f"got range [{low}, {high}]"
            )
        object.__setattr__(self, "_all_one", low == high == 1.0)

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
        of its allowed values, and 0 otherwise.  The weights are a read-only
        broadcast of the predicate's mask, held on the listed attributes
        only: a one-attribute marginal or range holds ``|dom(attribute)|`` cells.
        """
        mask = np.ones((1,) * len(schema.shape))
        for attribute_name, allowed_values in predicate.items():
            attribute = schema.attribute(attribute_name)
            allowed = np.zeros(attribute.domain.size, dtype=float)
            for value in allowed_values:
                allowed[attribute.domain.index_of(value)] = 1.0
            shape = [1] * len(schema.shape)
            shape[schema.axis_of(attribute_name)] = attribute.domain.size
            mask = mask * allowed.reshape(shape)
        return cls(schema.name, np.broadcast_to(mask, schema.shape))

    @property
    def held_axes(self) -> tuple[int, ...]:
        """The axes the weights are not broadcast along: those with a non-zero stride."""
        return tuple(axis for axis, stride in enumerate(self.weights.strides) if stride)

    def held_weights(self) -> np.ndarray:
        """The weights over their held axes only: a view, or the weights when all are held."""
        if all(self.weights.strides):
            return self.weights
        return self.weights[tuple(slice(None) if s else 0 for s in self.weights.strides) + (...,)]

    def is_all_one(self) -> bool:
        """Whether every weight is 1: O(1), read off the range check at construction."""
        return self._all_one


class ProductQuery:
    """A multi-table linear query ``q = (q_1, ..., q_m)``.

    ``table_queries`` holds at most one :class:`TableQuery` per relation.
    Relations without one default to the all-+1 weight function, so a query
    touching only some relations can be written compactly.
    """

    __slots__ = ("_join_query", "_table_queries", "name")

    def __init__(
        self,
        join_query: JoinQuery,
        table_queries: Sequence[TableQuery] = (),
        name: str = "q",
    ):
        self._join_query = join_query
        self.name = name
        provided: dict[str, TableQuery] = {}
        for query in table_queries:
            if not isinstance(query, TableQuery):
                raise TypeError(f"expected TableQuery objects, got {type(query).__name__}")
            if query.relation_name in provided:
                raise ValueError(f"relation {query.relation_name!r} is given two table queries")
            provided[query.relation_name] = query
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
            f"different join queries: relations {expected.relation_names} vs "
            f"{given.relation_names}"
        )
    if expected.attribute_names != given.attribute_names:
        raise ValueError(
            f"different join queries: attributes {expected.attribute_names} vs "
            f"{given.attribute_names}"
        )
    for name in expected.attribute_names:
        if expected.attribute(name).domain != given.attribute(name).domain:
            raise ValueError(
                f"different join queries: the domain of attribute {name!r} differs "
                f"(sizes {expected.attribute(name).domain.size} vs "
                f"{given.attribute(name).domain.size})"
            )
    for own_schema, other_schema in zip(expected.relations, given.relations):
        if own_schema.attribute_names != other_schema.attribute_names:
            raise ValueError(
                f"different join queries: relation {own_schema.name!r} "
                f"holds {own_schema.attribute_names} vs {other_schema.attribute_names}"
            )


def all_one_query(join_query: JoinQuery) -> ProductQuery:
    """The counting query: every table component is all-+1."""
    return ProductQuery(join_query, (), name="count")

