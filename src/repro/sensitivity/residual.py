"""Residual sensitivity ``RS^β_count(I)`` (Definition 3.6).

Residual sensitivity is the efficiently computable, constant-factor
approximation of smooth sensitivity introduced by Dong and Yi; the paper uses
it to calibrate the noisy sensitivity bound Δ̃ of Algorithm 3.  The definition
is

    RS^β(I)   = max_{k ≥ 0} e^{-βk} · LŜ^k(I),
    LŜ^k(I)   = max_{s ∈ S_k} max_i  Σ_{E ⊆ [m]∖{i}}  T_{([m]∖{i})∖E}(I) · Π_{j∈E} s_j,

where ``S_k`` are the non-negative integer vectors summing to ``k`` and ``T``
are the maximum boundary queries.

Computation strategy
--------------------
The query size ``m`` is a constant (data complexity), so the subsets are
enumerated exactly.  The maximisation over ``k`` and over the integer vectors
``s`` is carried out jointly over every non-negative integer vector of length
``m − 1`` whose coordinates sum to at most a cutoff ``K``: the simplex.

The cutoff is exact, not heuristic: removing one unit from the largest
coordinate of an optimal ``s ∈ S_{k+1}`` shrinks every product term by at most
a factor ``1 − (m−1)/(k+1)``, so

    e^{-β(k+1)}·LŜ^{k+1}  ≤  e^{-βk}·LŜ^k · e^{-β} / (1 − (m−1)/(k+1)),

which is strictly decreasing once ``k + 1 > (m−1)/(1 − e^{-β})``.  Taking
``K = ⌈(m−1)/(1 − e^{-β})⌉ + 2`` therefore covers the global maximiser.

The simplex holds ``C(K+m−1, m−1)`` points: 1.6 million for four relations at
(ε, δ) = (0.2, 1e-6), four billion for five at (0.1, 1e-6).
:func:`residual_sensitivity` therefore runs a best-first branch-and-bound
over integer boxes ``[lo, hi]`` of the simplex, one search for all ``i``:

* **Box bound.**  Every ``T`` is non-negative, so the inner sum
  ``P(s) = Σ_E T_{O∖E}·Π_{j∈E} s_j`` never decreases as ``s`` grows, and a
  box is bounded by its corner value ``e^{-β·Σlo}·P(hi)``, with ``hi`` first
  clipped to the simplex.  Two refinements make the bound tight enough for
  flat instances, whose maximum lies deep inside the simplex:

  - Factor ``e^{-β·Σs} = e^{-β·Σlo}·Π_j e^{-β(s_j − lo_j)}`` into the terms.
    Each ``s_j·e^{-β(s_j − lo_j)}`` is at most its value ``u_j ≤ hi_j`` at
    ``s_j = 1/β`` clipped to the box, and each ``e^{-β(s_j − lo_j)}`` at most
    1, so ``e^{-β·Σlo}·P(u)`` bounds the box.
  - ``P`` is affine in each coordinate, ``P = A + B·t``, so the bound can be
    exact along one coordinate ``j``: with ``A`` and ``B`` taken at ``u``,
    ``e^{-βt}(A + Bt)`` peaks at ``t = 1/β − A/B``, clipped to
    ``[lo_j, hi_j]``.  The bound used is the least over ``j``.

  The search starts from the ``k = 0`` point, the local sensitivity, which
  is the maximiser on most skewed instances.
* **Sound under rounding.**  A box is pruned only when its bound, inflated
  by a relative margin of ``1e-9``, is below the best value found so far.
  The bound and the point values are sums and products of non-negative
  numbers and one ``exp`` each, so their relative rounding error is a few
  hundred ulps at most (about ``1e-13``); the exponent is floored at
  ``-700`` so every factor of the bound stays a normal float.  A peak
  evaluated at a position rounded by ``δ`` loses only a relative ``β²δ²``,
  since both peaks are flat.  No pruned box can therefore hold a point whose
  computed value beats the incumbent.
* **Bitwise the enumeration.**  Leaf boxes are evaluated point by point by
  :func:`_weighted_objective`, the arithmetic the enumeration reference
  :func:`maximize_residual_objective` uses, and a maximum involves no
  rounding.  The search therefore returns the enumeration's value bit for
  bit, which keeps RS^β exactly β-smooth.
* **Bounded memory.**  Each step takes the ``_FRONTIER_BLOCK`` boxes with
  the highest bounds, evaluates the leaves among them and bisects the
  others along their widest coordinate.  Leaves hold at most
  ``_LEAF_BOX_POINTS`` points, so one step evaluates at most
  ``_BLOCK_POINTS`` points.  Past ``_FRONTIER_CAP`` boxes the search takes
  the deepest boxes instead of the best ones: it goes depth-first, which
  adds at most two blocks per level of a tree no deeper than
  ``(m−1)·⌈log2(K+1)⌉``.  Memory stays bounded whatever ``K`` is.
* **Small simplices.**  Excluded indices ``i`` with the same terms share one
  polynomial.  When the whole simplex, once per polynomial, fits in one
  step's ``_BLOCK_POINTS``, the search is that single vectorised
  enumeration: below that size bounding boxes costs more than it saves.

:func:`residual_sensitivity_profile` keeps the plain enumeration, because
its per-``k`` maxima need every point; it refuses simplices over
``_MAX_ENUMERATION_ROWS`` points with a :class:`MemoryError` before
allocating them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil, comb, exp, expm1

import numpy as np

from repro.relational.instance import Instance
from repro.sensitivity.boundary import all_boundary_queries
from repro.telemetry import trace

#: Safety valve on the size of the enumerated vector table.
_MAX_ENUMERATION_ROWS = 30_000_000
#: Boxes taken from the search frontier per step.
_FRONTIER_BLOCK = 512
#: A box with at most this many lattice points is evaluated as a leaf.
_LEAF_BOX_POINTS = 32
#: Points one step evaluates at most; a simplex this small (times the number
#: of distinct polynomials) is searched by one enumeration.
_BLOCK_POINTS = _FRONTIER_BLOCK * _LEAF_BOX_POINTS
#: Frontier size past which the search goes depth-first to bound its memory.
_FRONTIER_CAP = 1 << 18
#: Relative slack on a box bound before it may prune (covers rounding).
_PRUNE_MARGIN = 1e-9
#: Floor on a bound's exponent, so each of its factors stays a normal float.
_EXPONENT_FLOOR = -700.0

#: The non-zero terms of one inner sum ``P``: ``(T_{O∖E}, positions of E in O)``.
_Terms = tuple[tuple[float, tuple[int, ...]], ...]


def certified_cutoff(num_relations: int, beta: float) -> int:
    """Smallest enumeration cap guaranteed to contain the maximising ``k``."""
    if num_relations <= 1:
        return 1
    decay = -expm1(-beta)  # 1 - e^{-beta}
    return int(ceil((num_relations - 1) / decay)) + 2


def _simplex_points(num_parts: int, total_cap: int) -> np.ndarray:
    """All non-negative integer vectors of length ``num_parts`` with sum ≤ ``total_cap``."""
    if num_parts == 0:
        return np.zeros((1, 0), dtype=np.int64)
    if comb(total_cap + num_parts, num_parts) > _MAX_ENUMERATION_ROWS:
        raise MemoryError(
            "residual-sensitivity enumeration exceeded the row budget; use a larger beta"
        )
    points = np.arange(total_cap + 1, dtype=np.int64).reshape(-1, 1)
    for _ in range(num_parts - 1):
        sums = points.sum(axis=1)
        blocks = []
        for value in range(total_cap + 1):
            keep = points[sums + value <= total_cap]
            if keep.size == 0:
                continue
            column = np.full((keep.shape[0], 1), value, dtype=np.int64)
            blocks.append(np.hstack([keep, column]))
        points = np.vstack(blocks)
    return points


def _objective_terms(
    coefficients_by_subset: dict[frozenset[int], float],
    relation_indices: tuple[int, ...],
    excluded_index: int,
) -> _Terms:
    """The non-zero terms ``(T_{O∖E}, positions of E in O)`` in summation order."""
    others = [index for index in relation_indices if index != excluded_index]
    terms = []
    for subset_size in range(len(others) + 1):
        for chosen_positions in combinations(range(len(others)), subset_size):
            chosen = [others[position] for position in chosen_positions]
            remaining = frozenset(set(others) - set(chosen))
            coefficient = float(coefficients_by_subset[remaining])
            if coefficient != 0.0:
                terms.append((coefficient, chosen_positions))
    return tuple(terms)


def _weighted_objective(
    points: np.ndarray, terms: _Terms, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row sums, inner sums ``P(s)`` and values ``e^{-β·Σs}·P(s)`` of every row.

    The one place points are evaluated: the enumeration and the search's
    leaves both call it, so their values agree bit for bit.  Products are
    taken in float64: exact below 2^53, which every simplex small enough to
    enumerate stays below, and free of int64 wrap-around on the large
    simplices only the search visits.
    """
    sums = points.sum(axis=1)
    objective = np.zeros(points.shape[0], dtype=float)
    for coefficient, chosen_positions in terms:
        if chosen_positions:
            term = coefficient * points[:, list(chosen_positions)].prod(axis=1, dtype=float)
        else:
            term = np.full(points.shape[0], coefficient)
        objective += term
    return sums, objective, np.exp(-beta * sums) * objective


def maximize_residual_objective(
    coefficients_by_subset: dict[frozenset[int], float],
    relation_indices: tuple[int, ...],
    excluded_index: int,
    beta: float,
    total_cap: int,
    *,
    points: np.ndarray | None = None,
) -> tuple[float, dict[int, float]]:
    """Maximise ``e^{-β·Σs} Σ_E T_{O∖E}·Π_{j∈E}s_j`` over vectors with sum ≤ cap.

    ``O`` is ``relation_indices`` minus ``excluded_index``.  Returns the best
    value and the per-``k`` maxima of the inner sum (used by the profile).
    ``points`` lets callers reuse one simplex enumeration across several
    excluded indices (all have the same dimension ``m − 1``).  This is the
    enumeration reference :func:`maximize_residual` must match.
    """
    if points is None:
        others = [index for index in relation_indices if index != excluded_index]
        points = _simplex_points(len(others), total_cap)
    terms = _objective_terms(coefficients_by_subset, relation_indices, excluded_index)
    sums, objective, weighted = _weighted_objective(points, terms, beta)
    best = float(weighted.max()) if weighted.size else 0.0
    per_k: dict[int, float] = {}
    for k in range(total_cap + 1):
        mask = sums == k
        if mask.any():
            per_k[k] = float(objective[mask].max())
    return best, per_k


def _box_bounds(
    lo: np.ndarray, top: np.ndarray, coefficients: np.ndarray, beta: float
) -> np.ndarray:
    """Upper bound of ``e^{-β·Σs}·P(s)`` on each box ``[lo, top]`` (one per row).

    ``top`` is already clipped to the simplex; row ``r`` of ``coefficients``
    holds its box's ``T`` by position mask.
    """
    boxes, num_parts = lo.shape
    # u_j: the largest s_j·e^{-β(s_j - lo_j)} on the box, reached at s_j = 1/β.
    crest = np.clip(1.0 / beta, lo, top)
    upper = crest * np.exp(-beta * (crest - lo))
    monomials = np.ones((boxes, 1 << num_parts))
    for mask in range(1, 1 << num_parts):
        low = (mask & -mask).bit_length() - 1
        monomials[:, mask] = monomials[:, mask ^ (1 << low)] * upper[:, low]
    lo_sum = lo.sum(axis=1)
    bound = np.full(boxes, np.inf)
    for j in range(num_parts):
        # P = A + B·s_j: A collects the monomials without j, B those with it.
        without = [mask for mask in range(1 << num_parts) if not mask & (1 << j)]
        with_j = [mask | (1 << j) for mask in without]
        rest = monomials[:, without]
        constant = (coefficients[:, without] * rest).sum(axis=1)
        slope = (coefficients[:, with_j] * rest).sum(axis=1)
        ratio = np.divide(constant, slope, out=np.full(boxes, np.inf), where=slope > 0)
        peak = np.clip(1.0 / beta - ratio, lo[:, j], top[:, j])
        exponent = np.maximum(-beta * (lo_sum - lo[:, j] + peak), _EXPONENT_FLOOR)
        bound = np.minimum(bound, np.exp(exponent) * (constant + slope * peak))
    return bound


def _box_points(lo: np.ndarray, top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every lattice point of the boxes ``[lo, top]``, and the row of its box."""
    extent = top - lo + 1
    counts = extent.prod(axis=1)
    owner = np.repeat(np.arange(lo.shape[0]), counts)
    offset = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    points = np.empty((owner.size, lo.shape[1]), dtype=np.int64)
    for j in reversed(range(lo.shape[1])):
        span = extent[owner, j]
        points[:, j] = lo[owner, j] + offset % span
        offset //= span
    return points, owner


def maximize_residual(
    coefficients_by_subset: dict[frozenset[int], float],
    num_relations: int,
    beta: float,
    total_cap: int,
) -> float:
    """``max_i max_{Σs ≤ total_cap} e^{-β·Σs} Σ_E T_{O∖E}·Π_{j∈E}s_j`` by branch-and-bound.

    Bitwise the maximum :func:`maximize_residual_objective` finds over every
    excluded index ``i`` (see the module docstring).
    """
    relation_indices = tuple(range(num_relations))
    num_parts = num_relations - 1
    # Excluded indices with the same terms share one polynomial and one search.
    polynomials = list(
        dict.fromkeys(
            _objective_terms(coefficients_by_subset, relation_indices, i)
            for i in relation_indices
        )
    )
    with trace("sensitivity.residual", m=num_relations, K=total_cap) as span:
        if len(polynomials) * comb(total_cap + num_parts, num_parts) <= _BLOCK_POINTS:
            points = _simplex_points(num_parts, total_cap)
            best = max(
                float(_weighted_objective(points, terms, beta)[2].max()) for terms in polynomials
            )
            span.set(boxes=0, points=points.shape[0] * len(polynomials))
        else:
            best, boxes, evaluated = _branch_and_bound(polynomials, num_parts, beta, total_cap)
            span.set(boxes=boxes, points=evaluated)
    return best


def _branch_and_bound(
    polynomials: list[_Terms],
    num_parts: int,
    beta: float,
    total_cap: int,
) -> tuple[float, int, int]:
    """The search behind :func:`maximize_residual`: ``(best, boxes bounded, points evaluated)``."""
    table = np.zeros((len(polynomials), 1 << num_parts))
    for row, terms in enumerate(polynomials):
        for coefficient, chosen_positions in terms:
            table[row, sum(1 << position for position in chosen_positions)] = coefficient

    def bounded(lo, hi, poly, depth):
        """Clip boxes to the simplex, drop empty ones, and attach their bounds."""
        slack = total_cap - lo.sum(axis=1)
        keep = slack >= 0
        lo, hi, poly, depth, slack = lo[keep], hi[keep], poly[keep], depth[keep], slack[keep]
        top = np.minimum(hi, lo + slack[:, None])
        return lo, top, poly, depth, _box_bounds(lo, top, table[poly], beta)

    count = len(polynomials)
    frontier = bounded(
        np.zeros((count, num_parts), dtype=np.int64),
        np.full((count, num_parts), total_cap, dtype=np.int64),
        np.arange(count),
        np.zeros(count, dtype=np.int64),
    )
    # The k = 0 point (the local sensitivity) is often the maximiser itself.
    origin = np.zeros((1, num_parts), dtype=np.int64)
    best = max(float(_weighted_objective(origin, terms, beta)[2][0]) for terms in polynomials)
    boxes = count
    evaluated = count
    while frontier[0].shape[0]:
        lo, top, poly, depth, bound = frontier
        size = bound.shape[0]
        if size > _FRONTIER_BLOCK:
            key = depth if size > _FRONTIER_CAP else bound
            taken = np.zeros(size, dtype=bool)
            taken[np.argpartition(-key, _FRONTIER_BLOCK)[:_FRONTIER_BLOCK]] = True
        else:
            taken = np.ones(size, dtype=bool)
        rest = [part[~taken] for part in frontier]
        lo, top, poly, depth = lo[taken], top[taken], poly[taken], depth[taken]

        extent = top - lo + 1
        leaf = extent.prod(axis=1, dtype=float) <= _LEAF_BOX_POINTS
        if leaf.any():
            points, owner = _box_points(lo[leaf], top[leaf])
            points_poly = poly[leaf][owner]
            inside = points.sum(axis=1) <= total_cap
            points, points_poly = points[inside], points_poly[inside]
            evaluated += points.shape[0]
            for row in np.unique(points_poly):
                values = _weighted_objective(points[points_poly == row], polynomials[row], beta)[2]
                best = max(best, float(values.max()))

        split = ~leaf
        lo, top, poly, depth = lo[split], top[split], poly[split], depth[split]
        axis = (top - lo).argmax(axis=1)
        rows = np.arange(lo.shape[0])
        middle = (lo[rows, axis] + top[rows, axis]) // 2
        left_top, right_lo = top.copy(), lo.copy()
        left_top[rows, axis] = middle
        right_lo[rows, axis] = middle + 1
        children = bounded(
            np.concatenate([lo, right_lo]),
            np.concatenate([left_top, top]),
            np.concatenate([poly, poly]),
            np.concatenate([depth, depth]) + 1,
        )
        boxes += children[0].shape[0]

        lo, top, poly, depth, bound = (np.concatenate(pair) for pair in zip(rest, children))
        alive = bound * (1.0 + _PRUNE_MARGIN) >= best
        frontier = (lo[alive], top[alive], poly[alive], depth[alive], bound[alive])
    return best, boxes, evaluated


@dataclass(frozen=True)
class ResidualSensitivityProfile:
    """Diagnostic breakdown of a residual-sensitivity computation."""

    value: float
    maximizing_k: int
    ls_hat_by_k: dict[int, float]


def residual_sensitivity_profile(instance: Instance, beta: float) -> ResidualSensitivityProfile:
    """Compute ``RS^β_count(I)`` together with its intermediate quantities.

    Enumerates the whole simplex, so it raises :class:`MemoryError` where
    that would exceed ``_MAX_ENUMERATION_ROWS`` points; :func:`residual_sensitivity`
    computes the same value without that limit.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    query = instance.query
    m = query.num_relations
    relation_indices = tuple(range(m))
    coefficients = {key: float(value) for key, value in all_boundary_queries(instance).items()}
    cutoff = certified_cutoff(m, beta)

    best_value = 0.0
    ls_hat_by_k: dict[int, float] = {}
    shared_points = _simplex_points(m - 1, cutoff)
    for i in relation_indices:
        value, per_k = maximize_residual_objective(
            coefficients, relation_indices, i, beta, cutoff, points=shared_points
        )
        best_value = max(best_value, value)
        for k, inner in per_k.items():
            ls_hat_by_k[k] = max(ls_hat_by_k.get(k, 0.0), inner)

    maximizing_k = 0
    best_weighted = -1.0
    for k, inner in ls_hat_by_k.items():
        weighted = exp(-beta * k) * inner
        if weighted > best_weighted:
            best_weighted = weighted
            maximizing_k = k
    return ResidualSensitivityProfile(
        value=best_value, maximizing_k=maximizing_k, ls_hat_by_k=ls_hat_by_k
    )


def residual_sensitivity(instance: Instance, beta: float) -> float:
    """``RS^β_count(I)``.

    Always at least ``LS_count(I)`` (the ``k = 0`` term is exactly the local
    sensitivity) and β-smooth: on neighbouring instances the value changes by
    at most a factor ``e^β``.  Bitwise equal to
    ``residual_sensitivity_profile(instance, beta).value``, in bounded memory
    whatever the cutoff.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    m = instance.query.num_relations
    coefficients = {key: float(value) for key, value in all_boundary_queries(instance).items()}
    return maximize_residual(coefficients, m, beta, certified_cutoff(m, beta))
