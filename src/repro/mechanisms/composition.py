"""Composition rules for (ε, δ)-DP guarantees.

* **basic composition** — budgets add; the ledger composes its charges
  with it, and Algorithm 4 on a hierarchical join adds its partition's
  budget to its releases';
* **parallel composition** — mechanisms on disjoint data pay only the worst
  budget (Lemma 4.1); the ledger applies it within a parallel group;
* **advanced composition** — √k scaling across adaptive steps, and the
  per-step ε of Algorithm 2, which PMW's rounds spend; no algorithm here
  composes with it;
* **group privacy** — the multiplicative blow-up when one tuple affects
  several sub-instances (Lemma 4.11's ``O(log^c n)`` factor), which
  Algorithm 4 applies on a hierarchical join.
"""

from __future__ import annotations

from math import exp, log, sqrt
from typing import Iterable

from repro.mechanisms.spec import PrivacySpec


def basic_composition(specs: Iterable[PrivacySpec]) -> PrivacySpec:
    """Sum the budgets of sequentially composed mechanisms."""
    specs = list(specs)
    if not specs:
        raise ValueError("basic_composition needs at least one spec")
    epsilon = sum(spec.epsilon for spec in specs)
    delta = sum(spec.delta for spec in specs)
    return PrivacySpec(epsilon, min(delta, 1.0 - 1e-12))


def parallel_composition(specs: Iterable[PrivacySpec]) -> PrivacySpec:
    """Mechanisms applied to disjoint data pay only the worst budget."""
    specs = list(specs)
    if not specs:
        raise ValueError("parallel_composition needs at least one spec")
    epsilon = max(spec.epsilon for spec in specs)
    delta = max(spec.delta for spec in specs)
    return PrivacySpec(epsilon, delta)


def group_privacy(spec: PrivacySpec, group_size: int) -> PrivacySpec:
    """Guarantee for groups of ``group_size`` tuples: ε·k and δ·k·e^{ε(k−1)}."""
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    if group_size == 1:
        return spec
    epsilon = spec.epsilon * group_size
    delta = spec.delta * group_size * exp(spec.epsilon * (group_size - 1))
    return PrivacySpec(epsilon, min(delta, 1.0 - 1e-12))


def advanced_composition(
    per_step: PrivacySpec, steps: int, delta_slack: float
) -> PrivacySpec:
    """Advanced (strong) composition of ``steps`` adaptive mechanisms.

    Returns the overall guarantee
    ``ε' = ε·√(2k·ln(1/δ')) + k·ε·(e^ε − 1)`` and ``δ' + k·δ``.
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    if not 0 < delta_slack < 1:
        raise ValueError("delta_slack must be in (0, 1)")
    epsilon = per_step.epsilon
    total_epsilon = epsilon * sqrt(2.0 * steps * log(1.0 / delta_slack)) + steps * epsilon * (
        exp(epsilon) - 1.0
    )
    total_delta = delta_slack + steps * per_step.delta
    return PrivacySpec(total_epsilon, min(total_delta, 1.0 - 1e-12))


def per_step_epsilon_for_advanced_composition(
    total_epsilon: float, steps: int, delta_slack: float
) -> float:
    """The per-step ε that advanced composition turns into ``total_epsilon``.

    Algorithm 2's per-round ``ε' = ε / (16·√(k·log(1/δ)))``, with
    ``log(1/δ)`` floored at one so a large δ cannot raise ε' above
    ``ε / (16·√k)``.
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    if not 0 < delta_slack < 1:
        raise ValueError("delta_slack must be in (0, 1)")
    if total_epsilon <= 0:
        raise ValueError("total_epsilon must be positive")
    return total_epsilon / (16.0 * sqrt(steps * max(log(1.0 / delta_slack), 1.0)))
