"""The exponential mechanism.

The paper's preliminaries state the selection probability as
``∝ exp(−0.5·ε·s(I, c))``; since the PMW algorithm wants the query whose
current approximation error is *largest*, the implementation follows the
standard McSherry–Talwar formulation and samples ``∝ exp(+ε·s / 2)``.  The
scores must have sensitivity one, as the paper's ``s = |q(F) − q(I)| / Δ̃``
have: a score of sensitivity ``Δ_s`` is handed in divided by ``Δ_s``.
"""

from __future__ import annotations

from math import inf

import numpy as np

from repro.mechanisms.rng import require_generator
from repro.telemetry import trace as _trace


def exponential_mechanism_probabilities(scores: np.ndarray, epsilon: float) -> np.ndarray:
    """Selection probabilities ``∝ exp(ε·score / 2)`` of sensitivity-one scores.

    Computed with a log-sum-exp shift so very large scores do not overflow.
    Raises ``ValueError`` unless ``0 < ε < ∞``.
    """
    if not 0 < epsilon < inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    values = np.asarray(scores, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("scores must be a non-empty one-dimensional array")
    logits = (epsilon / 2.0) * values
    logits = logits - logits.max()
    weights = np.exp(logits)
    return weights / weights.sum()


def exponential_mechanism(
    scores: np.ndarray,
    epsilon: float,
    *,
    rng: np.random.Generator,
) -> int:
    """Sample a candidate index with the ε-DP exponential mechanism on sensitivity-one scores.

    Telemetry: every draw is one ``mechanism.exponential`` span, so the span
    count is the number of draws (no-op while disabled; the RNG is untouched
    by instrumentation).
    """
    generator = require_generator(rng)
    with _trace("mechanism.exponential", candidates=np.asarray(scores).size):
        probabilities = exponential_mechanism_probabilities(scores, epsilon)
        return int(generator.choice(len(probabilities), p=probabilities))
