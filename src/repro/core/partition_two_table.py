"""Algorithm 5: ``Partition-TwoTable`` — degree-bucket partition of a two-table join.

Join values of the shared attribute(s) are bucketed by their *noisy* maximum
degree on the geometric grid ``(λ·2^{i-1}, λ·2^i]``.  Each bucket induces a
sub-instance containing exactly the tuples whose join value falls in the
bucket, so the sub-instances are tuple-disjoint and their join results
partition the original join result — the properties behind the parallel
composition argument of Lemma 4.1.  The noisy bucketing step,
:func:`bucket_by_noisy_degree`, is Algorithm 7's too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Sequence

import numpy as np

from repro.mechanisms.rng import require_generator
from repro.mechanisms.truncated_laplace import default_lambda, sample_truncated_laplace
from repro.relational.instance import Instance
from repro.sensitivity.configurations import bucket_index
from repro.sensitivity.degrees import degree_vector


@dataclass
class TwoTableBucket:
    """One bucket of a noisy-degree partition: its index, join-value mask, and sub-instance."""

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


def partition_two_table(
    instance: Instance,
    epsilon: float,
    delta: float,
    *,
    rng: np.random.Generator,
) -> TwoTablePartition:
    """Partition a two-table instance by noisy join-value degrees (Algorithm 5).

    The partition is (ε, δ)-DP: the only data-dependent decision is the bucket
    assignment of each join value, driven by its degree plus sensitivity-1
    truncated Laplace noise (the degree of a join value changes by at most one
    between neighbouring instances), and the bucketing of different join
    values touches disjoint tuples (parallel composition).  The buckets lie
    on the grid of ``λ = default_lambda(ε, δ)``.
    """
    require_generator(rng)
    query = instance.query
    if query.num_relations != 2:
        raise ValueError("partition_two_table expects exactly two relations")
    lam = default_lambda(epsilon, delta)

    shared = sorted(query.boundary((0,)))
    if not shared:
        raise ValueError("the two relations share no attribute; the join is a cross product")

    degrees = np.maximum(
        degree_vector(instance, [0], shared), degree_vector(instance, [1], shared)
    )
    noisy, buckets = bucket_by_noisy_degree(
        instance, (0, 1), shared, degrees, epsilon, delta, lam, rng
    )
    return TwoTablePartition(
        shared_attributes=tuple(shared),
        lam=lam,
        buckets=buckets,
        noisy_degrees=noisy,
    )


def bucket_by_noisy_degree(
    instance: Instance,
    relation_positions: Sequence[int],
    attribute_names: Sequence[str],
    degrees: np.ndarray,
    epsilon: float,
    delta: float,
    lam: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[TwoTableBucket]]:
    """The noisy bucketing step of Algorithms 5 and 7, spending (ε, δ).

    ``degrees`` holds one degree per value combination of ``attribute_names``
    (a 0-d array when there are none).  Each gets sensitivity-1 truncated
    Laplace noise, one draw per entry in flat order, and its bucket on the
    ``λ·2^i`` grid.  Every non-empty bucket, in increasing index, yields the
    sub-instance whose relations at ``relation_positions`` keep only the
    records with values in the bucket; the other relations are carried over
    unchanged.  Returns the noisy degrees and the buckets.  Raises
    ``ValueError`` before any draw unless ``0 < λ < ∞``.
    """
    if not 0 < lam < inf:
        raise ValueError(f"lam (λ) must be positive and finite, got {lam}")
    noise = sample_truncated_laplace(1.0, epsilon, delta, size=int(degrees.size), rng=rng)
    noisy = degrees.reshape(-1) + np.asarray(noise, dtype=float)
    noisy = noisy.reshape(degrees.shape)

    bucket_of_value = np.vectorize(lambda value: bucket_index(value, lam))(noisy)
    buckets: list[TwoTableBucket] = []
    for index in sorted(np.unique(bucket_of_value)):
        mask = bucket_of_value == index
        relations = [
            relation.restrict_joint(attribute_names, mask)
            if position in relation_positions
            else relation
            for position, relation in enumerate(instance.relations)
        ]
        sub_instance = Instance(instance.query, relations)
        buckets.append(
            TwoTableBucket(index=int(index), join_value_mask=mask, sub_instance=sub_instance)
        )
    return noisy, buckets
