"""The exponential mechanism.

The paper's preliminaries state the selection probability as
``∝ exp(−0.5·ε·s(I, c))``; since the PMW algorithm wants the query whose
current approximation error is *largest*, the implementation follows the
standard McSherry–Talwar formulation and samples ``∝ exp(+ε·s / (2·Δ_s))``
where ``Δ_s`` is the sensitivity of the score.  (With the paper's scores
``s = |q(F) − q(I)| / Δ̃`` the sensitivity is one.)
"""

from __future__ import annotations

import numpy as np

from repro.mechanisms.rng import require_generator
from repro.telemetry import trace as _trace


def exponential_mechanism_probabilities(
    scores: np.ndarray,
    epsilon: float,
    sensitivity: float = 1.0,
) -> np.ndarray:
    """Selection probabilities ``∝ exp(ε·score / (2·sensitivity))``.

    Computed with a log-sum-exp shift so very large scores do not overflow.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    values = np.asarray(scores, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("scores must be a non-empty one-dimensional array")
    logits = (epsilon / (2.0 * sensitivity)) * values
    logits = logits - logits.max()
    weights = np.exp(logits)
    return weights / weights.sum()


def exponential_mechanism(
    scores: np.ndarray,
    epsilon: float,
    sensitivity: float = 1.0,
    *,
    rng: np.random.Generator,
) -> int:
    """Sample a candidate index with the ε-DP exponential mechanism.

    Telemetry: every draw is one ``mechanism.exponential`` span, so the span
    count is the number of draws (no-op while disabled; the RNG is untouched
    by instrumentation).
    """
    generator = require_generator(rng)
    with _trace("mechanism.exponential", candidates=np.asarray(scores).size):
        probabilities = exponential_mechanism_probabilities(scores, epsilon, sensitivity)
        return int(generator.choice(len(probabilities), p=probabilities))
