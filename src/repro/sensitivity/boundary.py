"""Maximum boundary queries ``T_E(I)`` (Equation 1 of the paper).

For a subset ``E`` of relations, the boundary ``∂E`` is the set of attributes
shared between relations inside and outside ``E``; ``T_E(I)`` is the largest
join size of the relations in ``E`` when grouped by a boundary value:

    T_E(I) = max_{t ∈ dom(∂E)} Σ_{t' : π_{∂E} t' = t} Π_{i∈E} R_i(π_{x_i} t').

These quantities are the building blocks of residual sensitivity
(Definition 3.6).  The empty subset has ``T_∅(I) = 1`` by convention (the
empty product), matching the role it plays in the residual-sensitivity sum.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

import numpy as np

from repro.relational.instance import Instance
from repro.relational.join import grouped_join_size


def boundary_query(instance: Instance, relation_subset: Iterable[int]) -> int:
    """``T_E(I)`` for the given subset ``E`` of relation indices."""
    subset = sorted(set(relation_subset))
    if not subset:
        return 1
    query = instance.query
    boundary_attrs = sorted(query.boundary(subset))
    grouped = grouped_join_size(instance, subset, boundary_attrs)
    if isinstance(grouped, (int, np.integer)):
        return int(grouped)
    return int(grouped.max()) if grouped.size else 0


def all_boundary_queries(instance: Instance) -> dict[frozenset[int], int]:
    """``T_E(I)`` for every subset ``E`` of relations (including ∅ and [m])."""
    query = instance.query
    indices = range(query.num_relations)
    values: dict[frozenset[int], int] = {}
    for size in range(query.num_relations + 1):
        for subset in combinations(indices, size):
            values[frozenset(subset)] = boundary_query(instance, subset)
    return values
