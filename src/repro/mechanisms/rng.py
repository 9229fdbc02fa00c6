"""Randomness plumbing.

All mechanisms and algorithms accept either a ready-made
``numpy.random.Generator`` or a plain integer seed.  ``resolve_rng`` funnels
both into a Generator so callers never have to care which form they hold.
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
        if not isinstance(rng, np.random.Generator):
            raise TypeError(f"rng must be a numpy Generator, got {type(rng)!r}")
        return rng
    return np.random.default_rng(seed)
