"""The shifted, truncated Laplace distribution ``TLap^τ_b`` of the paper.

``TLap^τ_b`` is supported on ``[0, 2τ]`` with density proportional to
``exp(-|x - τ| / b)``.  With ``b = Δ/ε`` and
``τ = τ(ε, δ, Δ) = (Δ/ε)·ln(1 + (e^ε − 1)/δ)`` the additive mechanism
``u + TLap^τ_b`` is (ε, δ)-DP for sensitivity-Δ values and — crucially for the
algorithms in this library — never *under*-estimates ``u``: the noise is
always non-negative, so noisy sensitivities remain valid upper bounds.
"""

from __future__ import annotations

from math import exp, expm1, log

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
    """``τ(ε, δ, Δ) = (Δ/ε)·ln(1 + (e^ε − 1)/δ)``."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if sensitivity < 0:
        raise ValueError(f"sensitivity must be non-negative, got {sensitivity}")
    return (sensitivity / epsilon) * log(1.0 + expm1(epsilon) / delta)


def sample_truncated_laplace(
    scale: float,
    radius: float,
    size: int | None = None,
    *,
    rng: np.random.Generator,
) -> float | np.ndarray:
    """Sample from ``TLap^radius_scale``: support ``[0, 2·radius]``, mode ``radius``.

    Sampling is by inverse-CDF so a single uniform drives each draw (keeps the
    number of RNG calls deterministic for reproducibility).
    """
    generator = require_generator(rng)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")

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
    """
    if sensitivity < 0:
        raise ValueError(f"sensitivity must be non-negative, got {sensitivity}")
    if sensitivity == 0:
        return float(value)
    radius = truncation_radius(epsilon, delta, sensitivity)
    noise = sample_truncated_laplace(sensitivity / epsilon, radius, rng=rng)
    return float(value) + float(noise)
