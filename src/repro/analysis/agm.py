"""The AGM bound and the worst-case error analysis of Appendix B.3.

For 0/1 (set-semantics) relations the join size is at most ``n^{ρ(H)}`` where
``ρ(H)`` is the fractional edge cover number — the optimum of a small linear
program solved here with ``scipy.optimize.linprog``.  Appendix B.3 combines
the AGM bounds of the residual queries with Theorem 1.5 to obtain the
worst-case closed form ``O(sqrt(n^{ρ(H)} · max_E n^{ρ(H_{E,∂E})}))``.

scipy loads on demand: the LP imports it when it first runs, so importing
this module (and the CLI, whose E9 is its one caller) needs numpy only.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from repro.relational.hypergraph import JoinQuery


def _edge_cover_lp(query: JoinQuery, relations: Sequence[int], names: Sequence[str]) -> float:
    """The fractional edge cover LP: the least weight on ``relations`` covering ``names``.

    Minimises ``Σ W_i`` subject to ``Σ_{i : x ∈ x_i} W_i >= 1`` for each
    attribute ``x`` of ``names`` and ``0 <= W_i <= 1``, with scipy's HiGHS,
    which is imported here so that only a caller that solves the LP loads it.
    """
    from scipy.optimize import linprog

    constraint_matrix = np.zeros((len(names), len(relations)))
    for row, attribute_name in enumerate(names):
        for column, index in enumerate(relations):
            if query.relations[index].has_attribute(attribute_name):
                constraint_matrix[row, column] = 1.0
    result = linprog(
        c=np.ones(len(relations)),
        A_ub=-constraint_matrix,
        b_ub=-np.ones(len(names)),
        bounds=[(0.0, 1.0)] * len(relations),
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"fractional edge cover LP failed: {result.message}")
    return float(result.fun)


def fractional_edge_cover_number(query: JoinQuery) -> float:
    """``ρ(H)``: the minimum total weight of a fractional edge cover."""
    return _edge_cover_lp(query, range(query.num_relations), list(query.attribute_names))


def agm_bound(query: JoinQuery, n: int) -> float:
    """``n^{ρ(H)}``: the AGM bound on the join size of 0/1 instances of size ``n``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 0.0
    return float(n) ** fractional_edge_cover_number(query)


def residual_query_agm_exponent(query: JoinQuery, relation_subset: frozenset[int]) -> float:
    """``ρ(H_{E, ∂E})``: edge cover number of a residual query after removing ``∂E``.

    The residual query keeps only the relations in ``E`` and only the
    attributes of ``∪_{i∈E} x_i`` outside the boundary ``∂E``.
    """
    subset = frozenset(relation_subset)
    if not subset:
        return 0.0
    boundary = query.boundary(subset)
    kept_attributes = query.attributes_of(subset) - boundary
    if not kept_attributes:
        return 0.0
    # The LP over the relations of E only.
    return _edge_cover_lp(query, sorted(subset), sorted(kept_attributes))


def worst_case_sensitivity_exponent(query: JoinQuery) -> float:
    """``max_{E ⊊ [m]} ρ(H_{E, ∂E})`` — the exponent of the worst-case residual sensitivity."""
    m = query.num_relations
    best = 0.0
    for size in range(m):
        for subset in combinations(range(m), size):
            best = max(best, residual_query_agm_exponent(query, frozenset(subset)))
    return best


def worst_case_error_bound(query: JoinQuery, n: int) -> float:
    """Appendix B.3 worst-case error shape for 0/1 relations.

    ``sqrt(n^{ρ(H)} · max_E n^{ρ(H_{E,∂E})})`` — the ``O_{λ, f_upper}(·)``
    closed form of the Theorem 1.5 error on the worst instance of size ``n``.
    """
    if n <= 0:
        return 0.0
    join_exponent = fractional_edge_cover_number(query)
    sensitivity_exponent = worst_case_sensitivity_exponent(query)
    return float(n) ** ((join_exponent + sensitivity_exponent) / 2.0)
