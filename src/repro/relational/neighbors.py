"""Neighbouring-instance utilities (Definition 1.1).

Two instances are neighbouring when they differ by adding or removing a single
(copy of a) tuple in a single relation.  E14's privacy audit releases on an
instance and on a random neighbour of it.
"""

from __future__ import annotations

import numpy as np

from repro.relational.instance import Instance


def random_neighbor(instance: Instance, rng: np.random.Generator) -> Instance:
    """Sample a uniformly random neighbouring instance.

    Chooses a relation uniformly, then with probability one half removes a
    uniformly random existing record (if any) and otherwise adds a uniformly
    random domain record.
    """
    index = int(rng.integers(instance.num_relations))
    relation = instance.relations[index]
    remove = bool(rng.integers(2)) and relation.total() > 0
    if remove:
        support = list(relation.tuples())
        weights = np.array([multiplicity for _, multiplicity in support], dtype=float)
        weights /= weights.sum()
        choice = int(rng.choice(len(support), p=weights))
        record = support[choice][0]
        return instance.with_delta(index, record, -1)
    schema = relation.schema
    positions = tuple(int(rng.integers(size)) for size in schema.shape)
    record = tuple(
        attribute.domain.value_at(i) for attribute, i in zip(schema.attributes, positions)
    )
    return instance.with_delta(index, record, +1)
