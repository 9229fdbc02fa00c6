"""The Laplace mechanism.

Telemetry: every draw is one ``mechanism.laplace`` span, so the span count
is the number of draws (a no-op while telemetry is disabled; the RNG is
never touched by instrumentation).
"""

from __future__ import annotations

import numpy as np

from repro.mechanisms.rng import require_generator
from repro.telemetry import trace as _trace


def sample_laplace(
    scale: float,
    size: int | tuple[int, ...] | None = None,
    *,
    rng: np.random.Generator,
) -> np.ndarray | float:
    """Sample zero-mean Laplace noise with scale ``b`` (PDF ∝ exp(-|x|/b))."""
    generator = require_generator(rng)
    if scale < 0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    if scale == 0:
        return 0.0 if size is None else np.zeros(size)
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
    if sensitivity < 0:
        raise ValueError(f"sensitivity must be non-negative, got {sensitivity}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    scale = sensitivity / epsilon
    array = np.asarray(value, dtype=float)
    noise = sample_laplace(scale, size=array.shape if array.shape else None, rng=rng)
    noisy = array + noise
    return float(noisy) if np.isscalar(value) or array.shape == () else noisy
