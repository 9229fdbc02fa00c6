"""Randomness plumbing.

A seed becomes a Generator in one place per run: ``resolve_rng`` at the
boundaries that take ``seed=`` — ``release_synthetic_data``, the workload,
instance and data generators, and the experiments.  Below them every
release step and every sampler takes only the Generator its caller hands it
(``require_generator``): a draw from a generator made where it is drawn
would leave the run's seed.
"""

from __future__ import annotations

import numpy as np


def resolve_rng(rng: np.random.Generator | None = None, seed: int | None = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Exactly one of ``rng`` and ``seed`` may be provided; with neither, a fresh
    nondeterministic generator is created.
    """
    if rng is not None and seed is not None:
        raise ValueError("provide either rng or seed, not both")
    if rng is not None:
        return require_generator(rng)
    return np.random.default_rng(seed)


def require_generator(rng: object) -> np.random.Generator:
    """``rng`` itself; raises ``TypeError`` unless it is a ``numpy.random.Generator``."""
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy Generator, got {type(rng)!r}")
    return rng
