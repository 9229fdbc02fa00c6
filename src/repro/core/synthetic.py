"""The released synthetic dataset ``F``.

``F`` is a non-negative function over the joint domain ``D = dom(x)``; linear
queries are answered against it exactly as against a real join result.  The
histogram is fractional (the PMW average of distributions); an integral
synthetic *table* can be obtained with :meth:`SyntheticDataset.round` when a
downstream consumer needs concrete rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.mechanisms.composition import basic_composition
from repro.mechanisms.rng import resolve_rng
from repro.mechanisms.spec import PrivacySpec
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
        Non-negative array with one axis per query attribute.
    privacy:
        The (ε, δ) guarantee under which the histogram was produced.
    metadata:
        Free-form diagnostics recorded by the producing algorithm.
    """

    join_query: JoinQuery
    histogram: np.ndarray
    privacy: PrivacySpec
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        histogram = np.asarray(self.histogram, dtype=float)
        if histogram.shape != self.join_query.shape:
            raise ValueError(
                f"histogram shape {histogram.shape} does not match joint domain shape "
                f"{self.join_query.shape}"
            )
        if np.any(histogram < -1e-9):
            raise ValueError("synthetic histogram must be non-negative")
        self.histogram = np.clip(histogram, 0.0, None)

    # ------------------------------------------------------------------ #
    # query answering
    # ------------------------------------------------------------------ #
    def total_mass(self) -> float:
        """The released total count (the noisy join size the PMW run targeted)."""
        return float(self.histogram.sum())

    def answer(self, query: ProductQuery) -> float:
        """Answer one linear query from the synthetic data."""
        return query.evaluate_on_histogram(self.histogram)

    # ------------------------------------------------------------------ #
    # combination and post-processing (all privacy-free)
    # ------------------------------------------------------------------ #
    def union(self, other: "SyntheticDataset", privacy: PrivacySpec | None = None) -> "SyntheticDataset":
        """Union of synthetic datasets: histograms add.

        Without ``privacy`` the union reports the basic composition of the
        two specs (ε₁ + ε₂, δ₁ + δ₂), which is sound for any two releases,
        including two of the same data.  A caller that knows the components
        saw disjoint data passes the tighter spec; Algorithm 4 does its own
        accounting and never calls this.
        """
        if self.join_query.attribute_names != other.join_query.attribute_names:
            raise ValueError("cannot union synthetic data over different joint domains")
        if privacy is None:
            privacy = basic_composition([self.privacy, other.privacy])
        return SyntheticDataset(
            join_query=self.join_query,
            histogram=self.histogram + other.histogram,
            privacy=privacy,
            metadata={"components": [self.metadata, other.metadata]},
        )

    def round(self, rng: np.random.Generator | None = None) -> np.ndarray:
        """Randomised rounding of the histogram to integer multiplicities.

        Post-processing only; the result is an integer array over the joint
        domain whose expectation equals the fractional histogram.
        """
        generator = resolve_rng(rng)
        floor = np.floor(self.histogram)
        remainder = self.histogram - floor
        return (floor + (generator.uniform(size=self.histogram.shape) < remainder)).astype(np.int64)

    def to_tuples(self, *, threshold: float = 0.5) -> Iterator[tuple[tuple, float]]:
        """Yield ``(joint value tuple, mass)`` for cells with mass above threshold."""
        for flat_index in np.flatnonzero(self.histogram > threshold):
            index = np.unravel_index(flat_index, self.histogram.shape)
            values = tuple(
                attribute.domain.value_at(i)
                for attribute, i in zip(self.join_query.attributes, index)
            )
            yield values, float(self.histogram[index])

    def __repr__(self) -> str:
        return (
            f"SyntheticDataset(total={self.total_mass():.1f}, cells={self.histogram.size}, "
            f"privacy={self.privacy})"
        )
