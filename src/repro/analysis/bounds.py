"""Closed-form error expressions from the paper's theorems.

These are the quantities the experiments compare measured errors against.
They are *shape* predictions: the theorems hide constants (and the
``f_upper`` factor hides poly-logarithmic terms), so the experiments report
ratios between measured error and these predictions, and
``tests/experiments/test_claims.py`` holds the ratios in constant bands
rather than expecting equality.

Notation (Section 1.1):

    f_lower(D, Q, ε)      = sqrt(sqrt(log |D|) / ε)
    f_upper(D, Q, ε, δ)   = f_lower · sqrt(log |Q| · log(1/δ))
    λ                     = (1/ε)·log(1/δ)
"""

from __future__ import annotations

from math import log, sqrt
from typing import Sequence

from repro.mechanisms.truncated_laplace import default_lambda


def f_lower(domain_size: float, epsilon: float) -> float:
    """``f_lower = sqrt(sqrt(log |D|) / ε)``."""
    if domain_size < 2:
        domain_size = 2
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return sqrt(sqrt(log(domain_size)) / epsilon)


def f_upper(domain_size: float, num_queries: float, epsilon: float, delta: float) -> float:
    """``f_upper = f_lower · sqrt(log |Q| · log(1/δ))``."""
    if num_queries < 2:
        num_queries = 2
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return f_lower(domain_size, epsilon) * sqrt(log(num_queries) * log(1.0 / delta))


def theorem_33_error(
    join_size: float,
    local_sensitivity: float,
    domain_size: float,
    num_queries: float,
    epsilon: float,
    delta: float,
) -> float:
    """Theorem 3.3 upper bound (two tables): Theorem 1.5's with ``RS = Δ + λ``.

    ``α = O((sqrt(count·(Δ+λ)) + (Δ+λ)·sqrt(λ)) · f_upper)``.
    """
    return theorem_15_error(
        join_size,
        local_sensitivity + default_lambda(epsilon, delta),
        domain_size,
        num_queries,
        epsilon,
        delta,
    )


def theorem_15_error(
    join_size: float,
    residual_sensitivity: float,
    domain_size: float,
    num_queries: float,
    epsilon: float,
    delta: float,
) -> float:
    """Theorem 1.5 upper bound (general joins).

    ``α = O((sqrt(count·RS) + RS·sqrt(λ)) · f_upper)``.
    """
    lam_value = default_lambda(epsilon, delta)
    bulk = sqrt(max(join_size, 0.0) * residual_sensitivity)
    tail = residual_sensitivity * sqrt(lam_value)
    return (bulk + tail) * f_upper(domain_size, num_queries, epsilon, delta)


def theorem_35_lower_bound(
    join_size: float,
    local_sensitivity: float,
    domain_size: float,
    epsilon: float,
) -> float:
    """Theorem 3.5 / 1.6 lower bound: ``Ω(min(OUT, sqrt(OUT·Δ)·f_lower))``."""
    return min(
        max(join_size, 0.0),
        sqrt(max(join_size, 0.0) * local_sensitivity) * f_lower(domain_size, epsilon),
    )


def theorem_44_error(
    bucket_join_sizes: Sequence[float],
    local_sensitivity: float,
    domain_size: float,
    num_queries: float,
    epsilon: float,
    delta: float,
) -> float:
    """Theorem 4.4 upper bound (uniformized two-table).

    ``α = O((λ^{3/2}·(Δ+λ) + Σ_i sqrt(count(I_i)·2^i·λ)) · f_upper)`` where
    ``bucket_join_sizes[i-1]`` is the join size of the i-th uniform bucket.
    """
    lam_value = default_lambda(epsilon, delta)
    head = lam_value**1.5 * (local_sensitivity + lam_value)
    body = sum(
        sqrt(max(size, 0.0) * (2 ** (index + 1)) * lam_value)
        for index, size in enumerate(bucket_join_sizes)
    )
    return (head + body) * f_upper(domain_size, num_queries, epsilon, delta)


def theorem_45_lower_bound(
    bucket_join_sizes: Sequence[float],
    domain_size: float,
    epsilon: float,
    delta: float,
) -> float:
    """Theorem 4.5 lower bound: ``Ω(max_i min(OUT_i, sqrt(OUT_i·2^i·λ)·f_lower))``.

    The maximum over buckets of Theorem 3.5's bound with ``Δ = 2^i·λ``.
    """
    lam_value = default_lambda(epsilon, delta)
    return max(
        (
            theorem_35_lower_bound(size, 2 ** (index + 1) * lam_value, domain_size, epsilon)
            for index, size in enumerate(bucket_join_sizes)
        ),
        default=0.0,
    )
