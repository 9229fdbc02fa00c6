"""Privacy specifications.

A :class:`PrivacySpec` is the ``(epsilon, delta)`` pair attached to every
released artefact.  Keeping the pair in a small value object (rather than two
loose floats) lets composition helpers and release reports manipulate budgets
without ambiguity about argument order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf


@dataclass(frozen=True)
class PrivacySpec:
    """An (epsilon, delta) differential-privacy guarantee."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0 <= self.delta < 1:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")

    def split(self, parts: int) -> "PrivacySpec":
        """An even split of the budget into ``parts`` pieces (basic composition)."""
        if parts <= 0:
            raise ValueError("parts must be positive")
        return PrivacySpec(self.epsilon / parts, self.delta / parts)

    def halve(self) -> "PrivacySpec":
        return self.split(2)

    def scaled(self, factor: float) -> "PrivacySpec":
        """Scale both parameters by ``factor`` (used for group privacy blow-ups)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return PrivacySpec(self.epsilon * factor, min(self.delta * factor, 1.0 - 1e-12))

    def __str__(self) -> str:
        return f"(ε={self.epsilon:g}, δ={self.delta:g})-DP"
