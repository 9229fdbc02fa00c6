"""Algorithms 6 and 7: hierarchical uniformization partitions.

``Decompose`` (Algorithm 7) splits an instance by the noisy degrees
``deg_{atom(x), ancestors(x)}`` of one attribute ``x``; ``Partition-Hierarchical``
(Algorithm 6) applies it to every attribute of the attribute tree bottom-up,
so each final sub-instance is characterised by a degree configuration
(Definition 4.9) and the join results of the sub-instances partition the join
result of the input (Lemma 4.10).  The noise, the ``λ·2^i`` buckets and the
restriction to each bucket are Algorithm 5's step,
:func:`~repro.core.partition_two_table.bucket_by_noisy_degree`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.partition_two_table import bucket_by_noisy_degree
from repro.mechanisms.rng import require_generator
from repro.mechanisms.truncated_laplace import default_lambda
from repro.relational.instance import Instance
from repro.sensitivity.degrees import degree_vector


@dataclass
class HierarchicalBucket:
    """One sub-instance of the hierarchical partition with its degree configuration."""

    configuration: dict[str, int]
    sub_instance: Instance


@dataclass
class HierarchicalPartition:
    """The output of Algorithm 6."""

    lam: float
    buckets: list[HierarchicalBucket]

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    def tuple_multiplicity(self, original: Instance) -> int:
        """Largest number of sub-instances any original tuple participates in.

        Lemma 4.10 bounds this by ``O(log^c n)``; the uniformized release uses
        the measured value for its group-privacy accounting.
        """
        worst = 0
        for index, relation in enumerate(original.relations):
            support = relation.frequencies > 0
            if not support.any():
                continue
            counts = np.zeros(relation.shape, dtype=np.int64)
            for bucket in self.buckets:
                counts += (bucket.sub_instance.relations[index].frequencies > 0).astype(np.int64)
            worst = max(worst, int(counts[support].max()))
        return max(worst, 1)


def strict_ancestor_attributes(instance: Instance, attribute_name: str) -> tuple[str, ...]:
    """``y = {y ∈ x : atom(x) ⊊ atom(y)}`` in query attribute order."""
    query = instance.query
    target_atom = query.atom(attribute_name)
    return tuple(
        name
        for name in query.attribute_names
        if name != attribute_name and target_atom < query.atom(name)
    )


def decompose_by_attribute(
    instance: Instance,
    attribute_name: str,
    epsilon: float,
    delta: float,
    *,
    lam: float,
    rng: np.random.Generator,
) -> list[tuple[int, Instance]]:
    """Algorithm 7: split an instance by the noisy degrees of one attribute.

    Returns ``(bucket_index, sub_instance)`` pairs.  The relations containing
    ``attribute_name`` are restricted to the join values of each bucket;
    relations outside ``atom(x)`` are carried over unchanged.  ``lam`` is
    the λ Algorithm 6 hands down.
    """
    require_generator(rng)
    ancestors = list(strict_ancestor_attributes(instance, attribute_name))
    atom = sorted(instance.query.atom(attribute_name))
    # With no ancestors dom(y) is the single empty tuple: one 0-d degree, one
    # draw, and one bucket holding the whole instance.
    degrees = degree_vector(instance, atom, ancestors)
    _, buckets = bucket_by_noisy_degree(
        instance, atom, ancestors, degrees, epsilon, delta, lam, rng
    )
    return [(bucket.index, bucket.sub_instance) for bucket in buckets]


def partition_hierarchical(
    instance: Instance,
    epsilon: float,
    delta: float,
    *,
    rng: np.random.Generator,
) -> HierarchicalPartition:
    """Algorithm 6: decompose an instance along every attribute of the tree.

    Attributes are processed in the tree's bottom-up order (children before
    parents); each step refines every sub-instance with :func:`decompose_by_attribute`
    on the grid of ``λ = default_lambda(ε, δ)``.
    """
    require_generator(rng)
    query = instance.query
    if not query.is_hierarchical():
        raise ValueError("partition_hierarchical requires a hierarchical join query")
    lam = default_lambda(epsilon, delta)

    current: list[tuple[dict[str, int], Instance]] = [({}, instance)]
    for attribute_name in query.attribute_tree().bottom_up_order():
        refined: list[tuple[dict[str, int], Instance]] = []
        for configuration, sub_instance in current:
            for index, piece in decompose_by_attribute(
                sub_instance,
                attribute_name,
                epsilon,
                delta,
                lam=lam,
                rng=rng,
            ):
                updated = dict(configuration)
                updated[attribute_name] = index
                refined.append((updated, piece))
        current = refined

    buckets = [
        HierarchicalBucket(configuration=configuration, sub_instance=sub_instance)
        for configuration, sub_instance in current
    ]
    return HierarchicalPartition(lam=lam, buckets=buckets)
