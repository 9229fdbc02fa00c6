"""The shifted, truncated Laplace distribution ``TLap^τ_b`` of the paper.

``TLap^τ_b`` is supported on ``[0, 2τ]`` with density proportional to
``exp(-|x - τ| / b)``.  With ``b = Δ/ε`` and
``τ = τ(ε, δ, Δ) = (Δ/ε)·ln(1 + (e^ε − 1)/δ)`` the additive mechanism
``u + TLap^τ_b`` is (ε, δ)-DP for sensitivity-Δ values and — crucially for the
algorithms in this library — never *under*-estimates ``u``: the noise is
always non-negative, so noisy sensitivities remain valid upper bounds.
The sampler takes (Δ, ε, δ) and works out ``b`` and ``τ`` itself, so the
calibration is written here and nowhere else.
"""

from __future__ import annotations

from math import exp, expm1, inf, log

import numpy as np

from repro.mechanisms.rng import require_generator
from repro.telemetry import trace as _trace


def default_lambda(epsilon: float, delta: float) -> float:
    """The paper's ``λ = (1/ε)·log(1/δ)``: the degree-bucket scale, and ``1/β``."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return log(1.0 / delta) / epsilon


def truncation_radius(epsilon: float, delta: float, sensitivity: float) -> float:
    """``τ(ε, δ, Δ) = (Δ/ε)·ln(1 + (e^ε − 1)/δ)``.

    Raises ``ValueError`` unless ``0 < ε < ∞``, ``0 < δ < 1`` and ``Δ ≥ 0``.
    """
    if not 0 < epsilon < inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not sensitivity >= 0:
        raise ValueError(f"sensitivity must be non-negative, got {sensitivity}")
    return (sensitivity / epsilon) * log(1.0 + expm1(epsilon) / delta)


def sample_truncated_laplace(
    sensitivity: float,
    epsilon: float,
    delta: float,
    size: int | None = None,
    *,
    rng: np.random.Generator,
) -> float | np.ndarray:
    """Sample the (ε, δ)-DP noise ``TLap^τ_b`` of a sensitivity-Δ value.

    ``b = Δ/ε`` and ``τ = τ(ε, δ, Δ)``: support ``[0, 2τ]``, mode ``τ``.
    Raises ``ValueError`` before any draw unless ``Δ > 0``, ``0 < ε < ∞``
    and ``0 < δ < 1``.  Sampling is by inverse-CDF so a single uniform
    drives each draw (keeps the number of RNG calls deterministic for
    reproducibility).
    """
    generator = require_generator(rng)
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    radius = truncation_radius(epsilon, delta, sensitivity)
    scale = sensitivity / epsilon

    def _inverse_cdf(u: np.ndarray | float) -> np.ndarray | float:
        u = np.asarray(u, dtype=float)
        # Normalising constant of exp(-|x - radius| / scale) over [0, 2·radius].
        tail = exp(-radius / scale)
        # Left branch: x in [0, radius] carries half of the mass by symmetry.
        left = radius + scale * np.log(np.clip(2.0 * u * (1.0 - tail) + tail, tail, 1.0))
        # Right branch mirrors the left: for u > 1/2 the sample is
        # 2·radius − F⁻¹(1 − u) evaluated on the left branch.
        right = radius - scale * np.log(
            np.clip(2.0 * (1.0 - u) * (1.0 - tail) + tail, tail, 1.0)
        )
        return np.where(u <= 0.5, left, right)

    with _trace("mechanism.truncated_laplace", scale=scale, radius=radius):
        uniforms = generator.uniform(size=size)
        samples = _inverse_cdf(uniforms)
        samples = np.clip(samples, 0.0, 2.0 * radius)
    return float(samples) if size is None else samples


def truncated_laplace_mechanism(
    value: float,
    sensitivity: float,
    epsilon: float,
    delta: float,
    *,
    rng: np.random.Generator,
) -> float:
    """Release ``value + TLap^{τ(ε, δ, Δ)}_{Δ/ε}``.

    The result is always at least ``value`` and at most ``value + 2·τ``, and is
    (ε, δ)-DP for neighbouring values differing by at most ``sensitivity``.
    A sensitivity-zero value needs no noise and is released as it is.
    """
    if sensitivity == 0:
        return float(value)
    return float(value) + sample_truncated_laplace(sensitivity, epsilon, delta, rng=rng)
