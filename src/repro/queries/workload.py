"""Workloads: named families of linear queries.

The error guarantees of the paper are uniform over a finite query family
``Q``; a :class:`Workload` is that family.  Besides acting as a container it
provides the standard generators used in the examples and benchmarks:

* ``counting`` — the single join-size query;
* ``random_sign`` — independent ±1 weights per table tuple (the "hard" style
  of query family used by the lower bounds);
* ``attribute_marginals`` — one indicator query per value of an attribute
  (a one-dimensional marginal of the join result);
* ``attribute_ranges`` — prefix ranges over an ordered attribute domain;
* ``random_predicates`` — random 0/1 selections with a target selectivity;
* ``product`` — cartesian combinations of per-relation query pools.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.mechanisms.rng import resolve_rng
from repro.queries.linear import ProductQuery, TableQuery, all_one_query, require_same_join
from repro.relational.hypergraph import JoinQuery


class Workload:
    """An ordered family of :class:`ProductQuery` over one join query."""

    def __init__(self, join_query: JoinQuery, queries: Sequence[ProductQuery]):
        queries = tuple(queries)
        if not queries:
            raise ValueError("a workload must contain at least one query")
        for query in queries:
            require_same_join(join_query, query.join_query)
        self._join_query = join_query
        self._queries = queries
        # The workload's one evaluator, owned by repro.queries.evaluation.shared_evaluator.
        self._evaluator = None

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    @property
    def join_query(self) -> JoinQuery:
        return self._join_query

    @property
    def queries(self) -> tuple[ProductQuery, ...]:
        return self._queries

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[ProductQuery]:
        return iter(self._queries)

    def __getitem__(self, index: int) -> ProductQuery:
        return self._queries[index]

    def names(self) -> tuple[str, ...]:
        return tuple(query.name for query in self._queries)

    def require_compatible(self, query: JoinQuery) -> None:
        """Raise ``ValueError`` unless ``query`` structurally matches this workload.

        The comparison is :func:`~repro.queries.linear.require_same_join`,
        the one :meth:`ProductQuery.evaluate` makes.
        """
        require_same_join(self._join_query, query)

    def extended(self, extra: Iterable[ProductQuery]) -> "Workload":
        return Workload(self._join_query, self._queries + tuple(extra))

    # ------------------------------------------------------------------ #
    # generators
    # ------------------------------------------------------------------ #
    @classmethod
    def counting(cls, join_query: JoinQuery) -> "Workload":
        """The workload containing only the join-size query."""
        return cls(join_query, (all_one_query(join_query),))

    @classmethod
    def random_sign(
        cls,
        join_query: JoinQuery,
        count: int,
        *,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        include_counting: bool = True,
    ) -> "Workload":
        """Queries with independent uniform ±1 weights on every table tuple."""
        generator = resolve_rng(rng, seed)
        queries: list[ProductQuery] = []
        if include_counting:
            queries.append(all_one_query(join_query))
        for index in range(count):
            table_queries = []
            for schema in join_query.relations:
                signs = generator.choice((-1.0, 1.0), size=schema.shape)
                table_queries.append(TableQuery(schema.name, signs))
            queries.append(ProductQuery(join_query, table_queries, name=f"sign{index}"))
        return cls(join_query, queries)

    @classmethod
    def attribute_marginals(
        cls,
        join_query: JoinQuery,
        attribute_name: str,
        *,
        include_counting: bool = True,
    ) -> "Workload":
        """One indicator query per value of ``attribute_name``.

        The indicator is attached to the first relation containing the
        attribute; all other relations keep all-+1 weights, so the answer is
        the join-size restricted to that attribute value (a marginal of the
        join result).
        """
        atom = join_query.atom(attribute_name)
        if not atom:
            raise KeyError(f"attribute {attribute_name!r} does not appear in any relation")
        host = join_query.relations[min(atom)]
        attribute = join_query.attribute(attribute_name)
        queries: list[ProductQuery] = []
        if include_counting:
            queries.append(all_one_query(join_query))
        for value in attribute.domain:
            indicator = TableQuery.indicator(host, {attribute_name: [value]})
            queries.append(
                ProductQuery(
                    join_query,
                    (indicator,),
                    name=f"{attribute_name}={value}",
                )
            )
        return cls(join_query, queries)

    @classmethod
    def attribute_ranges(
        cls,
        join_query: JoinQuery,
        attribute_name: str,
        *,
        count: int | None = None,
        include_counting: bool = True,
    ) -> "Workload":
        """Prefix-range queries over an ordered attribute domain.

        The k-th query selects the first ``k`` domain values of the attribute;
        ``count`` caps the number of prefixes (defaults to the domain size).
        """
        atom = join_query.atom(attribute_name)
        if not atom:
            raise KeyError(f"attribute {attribute_name!r} does not appear in any relation")
        host = join_query.relations[min(atom)]
        attribute = join_query.attribute(attribute_name)
        limit = attribute.domain.size if count is None else min(count, attribute.domain.size)
        queries: list[ProductQuery] = []
        if include_counting:
            queries.append(all_one_query(join_query))
        values = list(attribute.domain)
        for k in range(1, limit + 1):
            prefix = values[:k]
            indicator = TableQuery.indicator(host, {attribute_name: prefix})
            queries.append(
                ProductQuery(join_query, (indicator,), name=f"{attribute_name}<=#{k}")
            )
        return cls(join_query, queries)

    @classmethod
    def random_predicates(
        cls,
        join_query: JoinQuery,
        count: int,
        *,
        selectivity: float = 0.5,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        include_counting: bool = True,
    ) -> "Workload":
        """Random 0/1 predicates with expected per-tuple keep probability ``selectivity``."""
        if not 0 < selectivity <= 1:
            raise ValueError("selectivity must be in (0, 1]")
        generator = resolve_rng(rng, seed)
        queries: list[ProductQuery] = []
        if include_counting:
            queries.append(all_one_query(join_query))
        for index in range(count):
            table_queries = []
            for schema in join_query.relations:
                keep = (generator.uniform(size=schema.shape) < selectivity).astype(float)
                table_queries.append(TableQuery(schema.name, keep))
            queries.append(ProductQuery(join_query, table_queries, name=f"pred{index}"))
        return cls(join_query, queries)

    @classmethod
    def product(
        cls,
        join_query: JoinQuery,
        pools: dict[str, Sequence[TableQuery]],
        *,
        limit: int | None = None,
    ) -> "Workload":
        """The cartesian product ``Q = ×_i Q_i`` of per-relation query pools.

        Relations missing from ``pools`` contribute only the all-+1 query, as
        in the paper's lower-bound constructions where ``Q_2`` is a single
        all-one query.
        """
        per_relation: list[list[TableQuery]] = []
        for schema in join_query.relations:
            pool = list(pools.get(schema.name, []))
            if not pool:
                pool = [TableQuery.all_one(schema)]
            per_relation.append(pool)

        queries: list[ProductQuery] = []

        def recurse(position: int, chosen: list[TableQuery]) -> None:
            if limit is not None and len(queries) >= limit:
                return
            if position == len(per_relation):
                queries.append(
                    ProductQuery(join_query, list(chosen), name=f"prod{len(queries)}")
                )
                return
            for candidate in per_relation[position]:
                recurse(position + 1, chosen + [candidate])

        recurse(0, [])
        return cls(join_query, queries)
