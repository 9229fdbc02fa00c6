"""Join-value degrees and the q-aggregate upper bounds of Section 4.2.1.

``deg_{E, y}(t)`` (Definition 4.7) measures, for a tuple ``t`` over the
attributes ``y``:

* when ``E = {i}`` is a single relation — the total multiplicity of records of
  ``R_i`` projecting to ``t`` (an ordinary group-by count);
* when ``|E| ≥ 2`` — the number of *distinct* values over the common
  attributes ``∩E`` realised by joining the relations of ``E`` and restricting
  to ``t``.

``mdeg_E(y)`` is the maximum over ``t``.  The recursion of Section 4.2.1 then
upper bounds any boundary query ``T_E`` by a product of maximum degrees, with
each factor corresponding to a distinct attribute of the attribute tree
(Lemma 4.8).  That recursion is implemented by :func:`t_upper_bound` (exact
degrees from an instance) and :func:`t_upper_bound_symbolic` (degrees supplied
by a callable, used for degree-configuration analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.relational.hypergraph import JoinQuery
from repro.relational.instance import Instance
from repro.relational.join import grouped_join_size
from repro.sensitivity.boundary import boundary_query


def degree_vector(
    instance: Instance, relation_subset: Sequence[int], group_attributes: Sequence[str]
) -> np.ndarray:
    """``deg_{E, y}``: degree of every value combination of ``group_attributes``.

    Returns an array over the ``group_attributes`` axes (scalar array when the
    attribute list is empty).  A degree of ``2**63`` or more raises
    :class:`OverflowError` naming the relation instead of wrapping.
    """
    subset = sorted(set(relation_subset))
    if not subset:
        raise ValueError("relation subset must be non-empty")
    query = instance.query
    group = list(group_attributes)
    if len(subset) == 1:
        relation = instance.relations[subset[0]]
        for name in group:
            if not relation.schema.has_attribute(name):
                raise ValueError(
                    f"attribute {name!r} is not part of relation {relation.name!r}"
                )
        # grouped_join_size refuses a grouped entry past 2**63 but not a total.
        degrees = grouped_join_size(instance, subset, group)
        if not group and degrees >= 2**63:
            raise OverflowError(f"the total of {relation.name} passes 2**63")
        return np.asarray(degrees, dtype=np.int64)

    common = query.common_attributes_of(subset)
    for name in group:
        if name not in common:
            raise ValueError(
                f"attribute {name!r} must belong to the common attributes of the subset"
            )
    # Group the sub-join by all common attributes (grouping attributes first so
    # the output axes match the requested order), then count distinct positive
    # combinations of the remaining common attributes per group value.
    remaining = [name for name in sorted(common) if name not in group]
    grouped = grouped_join_size(instance, subset, group + remaining)
    grouped = np.asarray(grouped)
    positive = grouped > 0
    if remaining:
        axes = tuple(range(len(group), len(group) + len(remaining)))
        counts = positive.sum(axis=axes)
    else:
        counts = positive.astype(np.int64)
    return np.asarray(counts, dtype=np.int64)


def max_degree(
    instance: Instance, relation_subset: Sequence[int], group_attributes: Sequence[str]
) -> int:
    """``mdeg_E(y)``: the maximum degree over all value combinations of ``y``."""
    degrees = degree_vector(instance, relation_subset, group_attributes)
    return int(degrees.max()) if degrees.size else 0


@dataclass(frozen=True)
class DegreeFactor:
    """One maximum-degree factor in a q-aggregate upper bound."""

    relation_subset: frozenset[int]
    group_attributes: frozenset[str]
    value: float


@dataclass(frozen=True)
class TBoundResult:
    """Result of the Section 4.2.1 recursion: value and contributing factors."""

    value: float
    factors: tuple[DegreeFactor, ...]
    exact_fallback: bool = False


def _t_upper_bound(
    query: JoinQuery,
    relation_subset: frozenset[int],
    group_attributes: frozenset[str],
    degree_fn: Callable[[frozenset[int], frozenset[str]], float],
    exact_fn: Callable[[frozenset[int]], float] | None,
) -> TBoundResult:
    subset = frozenset(relation_subset)
    group = frozenset(group_attributes)
    if not subset:
        return TBoundResult(1.0, ())
    if len(subset) == 1:
        value = degree_fn(subset, group)
        return TBoundResult(float(value), (DegreeFactor(subset, group, float(value)),))
    components = query.connected_components(subset, group)
    if len(components) > 1:
        # Case (2.1): the residual join is disconnected; bound by the product
        # over connected sub-queries.
        value = 1.0
        factors: list[DegreeFactor] = []
        exact = False
        for component in components:
            component_attrs = query.attributes_of(component)
            sub = _t_upper_bound(
                query, component, group & component_attrs, degree_fn, exact_fn
            )
            value *= sub.value
            factors.extend(sub.factors)
            exact = exact or sub.exact_fallback
        return TBoundResult(value, tuple(factors), exact)
    common = query.common_attributes_of(subset)
    if group < common:
        # Case (2.2): connected residual join; peel off one maximum degree and
        # recurse with the full set of common attributes as aggregation set.
        head = degree_fn(subset, group)
        rest = _t_upper_bound(query, subset, common, degree_fn, exact_fn)
        return TBoundResult(
            float(head) * rest.value,
            (DegreeFactor(subset, group, float(head)),) + rest.factors,
            rest.exact_fallback,
        )
    # Defensive fallback (cannot happen for hierarchical joins): no further
    # decomposition is possible, use the exact boundary query if available.
    if exact_fn is None:
        raise ValueError(
            "q-aggregate recursion got stuck on a non-hierarchical sub-query and no "
            "exact fallback was provided"
        )
    return TBoundResult(float(exact_fn(subset)), (), True)


def t_upper_bound(instance: Instance, relation_subset: Sequence[int]) -> TBoundResult:
    """Upper bound on ``T_E(I)`` (Equation 1) as a product of maximum degrees.

    The recursion groups by the boundary ``∂E``.  The returned factors
    satisfy Lemma 4.8: each corresponds to a distinct attribute of the
    attribute tree.
    """
    query = instance.query
    subset = frozenset(relation_subset)
    group = frozenset(query.boundary(subset))

    def degree_fn(sub: frozenset[int], attrs: frozenset[str]) -> float:
        ordered = sorted(attrs)
        return float(max_degree(instance, sorted(sub), ordered))

    def exact_fn(sub: frozenset[int]) -> float:
        return float(boundary_query(instance, sorted(sub)))

    return _t_upper_bound(query, subset, group, degree_fn, exact_fn)


def t_upper_bound_symbolic(
    query: JoinQuery,
    relation_subset: Sequence[int],
    degree_bound: Callable[[frozenset[int], frozenset[str]], float],
) -> TBoundResult:
    """The same recursion with degrees supplied by ``degree_bound``.

    Used for degree-configuration analysis where each maximum degree is
    replaced by its bucket upper bound ``λ·2^i`` rather than measured from an
    instance.  Raises if the recursion needs an exact fallback, which cannot
    happen for hierarchical joins.
    """
    subset = frozenset(relation_subset)
    return _t_upper_bound(query, subset, frozenset(query.boundary(subset)), degree_bound, None)
