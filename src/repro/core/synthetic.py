"""The released synthetic dataset ``F``.

``F`` is a non-negative function over the joint domain ``D = dom(x)``; linear
queries are answered against it exactly as against a real join result.  The
histogram is fractional (the PMW average of distributions).  The guarantee it
was released under and the algorithm that released it are on the
:class:`~repro.core.result.ReleaseResult` that carries it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.queries.linear import ProductQuery
from repro.relational.hypergraph import JoinQuery


def assemble_flat_histogram(
    domain_size: int, slices: "Iterator[tuple[int, int, np.ndarray]] | list"
) -> np.ndarray:
    """Assemble one flat histogram from disjoint ``(start, stop, cells)`` slices.

    The bridge between a :class:`~repro.queries.evaluation.HistogramSession`'s
    ``averaged_slices`` and consumers that want one array; raises if the
    slices leave a gap, overlap or miss cells, so a dropped slice fails
    loudly instead of releasing silent zeros.  A single whole-domain slice
    of float64 cells is returned as it is, without a copy.
    """
    slices = sorted(slices, key=lambda piece: piece[0])
    covered = 0
    for start, stop, _cells in slices:
        if start != covered:
            raise ValueError(
                f"histogram slices leave a gap or overlap at cell {min(start, covered)}"
            )
        covered = stop
    if covered != domain_size:
        raise ValueError(
            f"histogram slices cover {covered} of {domain_size} joint-domain cells"
        )
    if len(slices) == 1:
        flat = np.asarray(slices[0][2], dtype=float)
        if flat.shape == (domain_size,):
            return flat
    flat = np.empty(domain_size, dtype=float)
    for start, stop, cells in slices:
        flat[start:stop] = cells
    return flat


@dataclass
class SyntheticDataset:
    """A synthetic joint-domain frequency function released under DP.

    Attributes
    ----------
    join_query:
        The join query whose joint domain the histogram lives on.
    histogram:
        Non-negative array with one axis per query attribute; a float64
        array is kept as given, not copied.
    """

    join_query: JoinQuery
    histogram: np.ndarray

    def __post_init__(self) -> None:
        histogram = np.asarray(self.histogram, dtype=float)
        if histogram.shape != self.join_query.shape:
            raise ValueError(
                f"histogram shape {histogram.shape} does not match joint domain shape "
                f"{self.join_query.shape}"
            )
        if np.any(histogram < 0):
            raise ValueError("synthetic histogram must be non-negative")
        self.histogram = histogram

    # ------------------------------------------------------------------ #
    # query answering
    # ------------------------------------------------------------------ #
    def total_mass(self) -> float:
        """The released total count (the noisy join size the PMW run targeted)."""
        return float(self.histogram.sum())

    def answer(self, query: ProductQuery) -> float:
        """Answer one linear query from the synthetic data."""
        return query.evaluate_on_histogram(self.histogram)

    def __repr__(self) -> str:
        return f"SyntheticDataset(total={self.total_mass():.1f}, cells={self.histogram.size})"
