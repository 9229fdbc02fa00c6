"""The correctness gate every release passes through, and the error metric."""

from __future__ import annotations

import numpy as np

import repro


def bitwise_equal(first: np.ndarray, second: np.ndarray) -> bool:
    """Same dtype, shape and bytes: no tolerance."""
    return (
        first.dtype == second.dtype
        and first.shape == second.shape
        and first.tobytes() == second.tobytes()
    )


def release_problems(
    result: repro.ReleaseResult,
    *,
    epsilon: float,
    delta: float,
    shape: tuple[int, ...],
    reference: np.ndarray | None = None,
) -> list[str]:
    """Everything wrong with one release; empty when it passes.

    The histogram must have the joint domain's shape and be finite and
    non-negative, the reported guarantee must equal the declared (ε, δ)
    (Lemmas 3.2, 3.7 and 4.1: none of the benchmarked algorithms blows the
    budget up), and a release repeated with the same seed must reproduce
    ``reference`` bitwise.
    """
    problems = []
    histogram = np.asarray(result.synthetic.histogram)
    if histogram.shape != shape:
        problems.append(f"histogram shape {histogram.shape} != joint domain {shape}")
    if not np.all(np.isfinite(histogram)):
        problems.append("histogram has non-finite cells")
    elif histogram.size and histogram.min() < 0:
        problems.append(f"histogram has a negative cell ({histogram.min()!r})")
    declared = repro.PrivacySpec(epsilon, delta)
    if result.privacy != declared:
        problems.append(f"reported privacy {result.privacy} != declared {declared}")
    if reference is not None and not bitwise_equal(histogram, reference):
        problems.append("histogram differs bitwise from an earlier release with the same seed")
    return problems


def linf_error_rel(true_answers: np.ndarray, released_answers: np.ndarray) -> float:
    """``max_q |q(I) - q(F)| / max(1, max_q |q(I)|)``."""
    scale = max(1.0, float(np.max(np.abs(true_answers))))
    return float(np.max(np.abs(true_answers - released_answers))) / scale
