"""Algorithm 5: ``Partition-TwoTable`` — degree-bucket partition of a two-table join.

Join values of the shared attribute(s) are bucketed by their *noisy* maximum
degree on the geometric grid ``(λ·2^{i-1}, λ·2^i]``.  Each bucket induces a
sub-instance containing exactly the tuples whose join value falls in the
bucket, so the sub-instances are tuple-disjoint and their join results
partition the original join result — the properties behind the parallel
composition argument of Lemma 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from repro.mechanisms.rng import resolve_rng
from repro.mechanisms.truncated_laplace import sample_truncated_laplace, truncation_radius
from repro.relational.instance import Instance
from repro.sensitivity.configurations import bucket_index


@dataclass
class TwoTableBucket:
    """One bucket of the partition: its index, join-value mask, and sub-instance."""

    index: int
    join_value_mask: np.ndarray
    sub_instance: Instance


@dataclass
class TwoTablePartition:
    """The output of Algorithm 5."""

    shared_attributes: tuple[str, ...]
    lam: float
    buckets: list[TwoTableBucket]
    noisy_degrees: np.ndarray

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)


def default_lambda(epsilon: float, delta: float) -> float:
    """The paper's λ = (1/ε)·log(1/δ)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return log(1.0 / delta) / epsilon


def partition_two_table(
    instance: Instance,
    epsilon: float,
    delta: float,
    *,
    lam: float | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> TwoTablePartition:
    """Partition a two-table instance by noisy join-value degrees (Algorithm 5).

    The partition is (ε, δ)-DP: the only data-dependent decision is the bucket
    assignment of each join value, driven by its degree plus sensitivity-1
    truncated Laplace noise (the degree of a join value changes by at most one
    between neighbouring instances), and the bucketing of different join
    values touches disjoint tuples (parallel composition).
    """
    query = instance.query
    if query.num_relations != 2:
        raise ValueError("partition_two_table expects exactly two relations")
    generator = resolve_rng(rng, seed)
    if lam is None:
        lam = default_lambda(epsilon, delta)

    shared = sorted(query.boundary((0,)))
    if not shared:
        raise ValueError("the two relations share no attribute; the join is a cross product")

    first, second = instance.relations
    degrees_first = first.degree(shared).astype(float)
    degrees_second = second.degree(shared).astype(float)
    max_degrees = np.maximum(degrees_first, degrees_second)

    radius = truncation_radius(epsilon, delta, 1.0)
    noise = sample_truncated_laplace(
        1.0 / epsilon, radius, size=int(max_degrees.size), rng=generator
    )
    noisy = max_degrees.reshape(-1) + np.asarray(noise, dtype=float)
    noisy = noisy.reshape(max_degrees.shape)

    bucket_of_value = np.vectorize(lambda value: bucket_index(value, lam))(noisy)
    buckets: list[TwoTableBucket] = []
    for index in sorted(np.unique(bucket_of_value)):
        mask = bucket_of_value == index
        sub_first = first.restrict_joint(shared, mask)
        sub_second = second.restrict_joint(shared, mask)
        sub_instance = Instance(query, (sub_first, sub_second))
        buckets.append(
            TwoTableBucket(index=int(index), join_value_mask=mask, sub_instance=sub_instance)
        )
    return TwoTablePartition(
        shared_attributes=tuple(shared),
        lam=lam,
        buckets=buckets,
        noisy_degrees=noisy,
    )
