"""Local sensitivity of the counting join-size query.

``LS_count(I)`` is the maximum change of ``count(I)`` over all neighbouring
instances.  Adding/removing one copy of a tuple ``t* ∈ D_i`` changes the join
size by exactly the number of join combinations of the *other* relations that
agree with ``t*`` on the shared attributes; the local sensitivity is the
maximum of that quantity over relations and tuples.

For the two-table query this reduces to the paper's
``Δ = max_b max(deg_1(b), deg_2(b))``.
"""

from __future__ import annotations

import numpy as np

from repro.relational.instance import Instance
from repro.relational.join import grouped_join_size


def per_relation_local_sensitivity(instance: Instance) -> dict[str, int]:
    """Maximum join-size change from touching one tuple of each relation.

    Returns ``{relation_name: max_t |count(I ± t) − count(I)|}``.
    """
    query = instance.query
    result: dict[str, int] = {}
    all_indices = set(range(query.num_relations))
    for index, schema in enumerate(query.relations):
        others = sorted(all_indices - {index})
        if not others:
            # Single-table query: adding/removing one record changes the count by 1.
            result[schema.name] = 1
            continue
        other_attrs = {
            name
            for other in others
            for name in query.relations[other].attribute_names
        }
        shared = [name for name in schema.attribute_names if name in other_attrs]
        grouped = grouped_join_size(instance, others, shared)
        if isinstance(grouped, (int, np.integer)):
            result[schema.name] = int(grouped)
        else:
            result[schema.name] = int(grouped.max()) if grouped.size else 0
    return result


def local_sensitivity(instance: Instance) -> int:
    """``LS_count(I)``: the worst-case join-size change over all neighbours."""
    return max(per_relation_local_sensitivity(instance).values())
