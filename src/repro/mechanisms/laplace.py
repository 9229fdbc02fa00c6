"""The Laplace mechanism.

The sampler takes (Δ, ε) and works out the scale ``Δ/ε`` itself, so the
calibration is written here and nowhere else.

Telemetry: every draw is one ``mechanism.laplace`` span, so the span count
is the number of draws (a no-op while telemetry is disabled; the RNG is
never touched by instrumentation).
"""

from __future__ import annotations

from math import inf

import numpy as np

from repro.mechanisms.rng import require_generator
from repro.telemetry import trace as _trace


def sample_laplace(
    sensitivity: float,
    epsilon: float,
    size: int | tuple[int, ...] | None = None,
    *,
    rng: np.random.Generator,
) -> np.ndarray | float:
    """Sample the ε-DP noise of a sensitivity-Δ value: zero-mean Laplace of scale ``b = Δ/ε``.

    The density is ∝ exp(-|x|/b).  Raises ``ValueError`` before any draw
    unless ``0 < ε < ∞`` and ``Δ ≥ 0``; at ``Δ = 0`` the noise is zero and
    nothing is drawn.
    """
    generator = require_generator(rng)
    if not 0 < epsilon < inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not sensitivity >= 0:
        raise ValueError(f"sensitivity must be non-negative, got {sensitivity}")
    if sensitivity == 0:
        return 0.0 if size is None else np.zeros(size)
    scale = sensitivity / epsilon
    with _trace("mechanism.laplace", scale=scale):
        sample = generator.laplace(loc=0.0, scale=scale, size=size)
    return float(sample) if size is None else sample


def laplace_mechanism(
    value: float | np.ndarray,
    sensitivity: float,
    epsilon: float,
    *,
    rng: np.random.Generator,
) -> float | np.ndarray:
    """Release ``value`` with ε-DP Laplace noise calibrated to ``sensitivity``.

    For vector-valued ``value``, the sensitivity is interpreted as the ℓ1
    sensitivity of the whole vector and each coordinate receives independent
    Laplace noise of scale ``sensitivity / epsilon``.
    """
    array = np.asarray(value, dtype=float)
    noisy = array + sample_laplace(sensitivity, epsilon, size=array.shape or None, rng=rng)
    return float(noisy) if np.isscalar(value) or array.shape == () else noisy
