"""Degree configurations for hierarchical joins (Definition 4.9).

A degree configuration assigns a bucket index to every attribute ``x`` of the
attribute tree: the bucket of the maximum degree ``mdeg_{atom(x)}(ancestors(x))``
on the geometric grid ``(λ·2^{i-1}, λ·2^i]``.  By Lemma 4.8 these are exactly
the factors that appear in the q-aggregate upper bounds of the boundary
queries ``T_E``, so a configuration determines an upper bound on the residual
sensitivity of every sub-instance produced by the hierarchical decomposition
(used by the Theorem C.2 error analysis and experiment E8).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil, log2

from repro.relational.hypergraph import JoinQuery
from repro.relational.instance import Instance
from repro.sensitivity.degrees import max_degree, t_upper_bound_symbolic
from repro.sensitivity.residual import certified_cutoff, maximize_residual


def bucket_index(value: float, lam: float) -> int:
    """Bucket of a (noisy) degree on the grid ``(λ·2^{i-1}, λ·2^i]``, i ≥ 1."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if value <= 0:
        return 1
    return max(1, int(ceil(log2(value / lam))))


def bucket_upper_value(index: int, lam: float) -> float:
    """The largest degree allowed in bucket ``index``: ``λ·2^index``."""
    if index < 1:
        raise ValueError("bucket index must be at least 1")
    return lam * (2.0**index)


@dataclass(frozen=True)
class DegreeConfiguration:
    """Bucket index per attribute of a hierarchical join's attribute tree."""

    query_relation_names: tuple[str, ...]
    buckets: tuple[tuple[str, int], ...]

    def bucket_of(self, attribute_name: str) -> int:
        for name, index in self.buckets:
            if name == attribute_name:
                return index
        raise KeyError(f"configuration has no attribute {attribute_name!r}")

    def __str__(self) -> str:
        inner = ", ".join(f"{name}:{index}" for name, index in self.buckets)
        return f"DegreeConfiguration({inner})"


def configuration_of_instance(instance: Instance, lam: float) -> DegreeConfiguration:
    """The configuration of an instance under the *uniform* (noise-free) partition.

    For every attribute ``x`` of the attribute tree the relevant maximum degree
    is ``mdeg_{atom(x)}(ancestors(x))`` (Lemma 4.8); its bucket index on the
    ``λ·2^i`` grid defines the configuration.
    """
    query = instance.query
    tree = query.attribute_tree()
    buckets = []
    for name in query.attribute_names:
        subset = sorted(query.atom(name))
        ancestors = list(tree.ancestors(name))
        degree = max_degree(instance, subset, ancestors)
        buckets.append((name, bucket_index(degree, lam)))
    return DegreeConfiguration(
        query_relation_names=query.relation_names, buckets=tuple(buckets)
    )


def configuration_t_upper_bound(
    query: JoinQuery,
    configuration: DegreeConfiguration,
    relation_subset: frozenset[int] | set[int],
    lam: float,
) -> float:
    """Upper bound on ``T_E`` for instances matching the configuration."""
    tree = query.attribute_tree()
    atoms = {name: frozenset(query.atom(name)) for name in query.attribute_names}
    ancestor_sets = {
        name: frozenset(tree.ancestors(name)) for name in query.attribute_names
    }

    def degree_bound(subset: frozenset[int], attrs: frozenset[str]) -> float:
        # Match the (E, y) pair to its attribute (Lemma 4.8); fall back to the
        # loosest bucket bound among matching atoms when the aggregation set
        # differs (can only make the bound larger, never smaller).
        candidates = [
            name
            for name in query.attribute_names
            if atoms[name] == subset and ancestor_sets[name] == attrs
        ]
        if not candidates:
            candidates = [name for name in query.attribute_names if atoms[name] == subset]
        if not candidates:
            # No attribute matches this subset — the degree of a singleton
            # relation grouped by arbitrary attributes is at most the largest
            # bucket bound of its own attributes.
            candidates = [
                name for name in query.attribute_names if subset <= atoms[name]
            ] or list(query.attribute_names)
        return max(
            bucket_upper_value(configuration.bucket_of(name), lam) for name in candidates
        )

    result = t_upper_bound_symbolic(query, sorted(relation_subset), degree_bound)
    return result.value


def configuration_residual_upper_bound(
    query: JoinQuery,
    configuration: DegreeConfiguration,
    beta: float,
    lam: float,
) -> float:
    """``RS^σ_count``: residual sensitivity computed from configuration bounds.

    Mirrors Definition 3.6 with every boundary query ``T_E`` replaced by its
    configuration upper bound, giving the quantity used in the Theorem C.2
    error expression.  The cutoff is ``residual_sensitivity``'s,
    :func:`~repro.sensitivity.residual.certified_cutoff`.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    m = query.num_relations
    t_bounds: dict[frozenset[int], float] = {}
    for size in range(m + 1):
        for subset in combinations(range(m), size):
            key = frozenset(subset)
            if not key:
                t_bounds[key] = 1.0
            else:
                t_bounds[key] = configuration_t_upper_bound(query, configuration, key, lam)
    return maximize_residual(t_bounds, m, beta, certified_cutoff(m, beta))
