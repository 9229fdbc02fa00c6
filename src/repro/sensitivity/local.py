"""Local sensitivity of the counting join-size query.

``LS_count(I)`` is the maximum change of ``count(I)`` over all neighbouring
instances.  Adding/removing one copy of a tuple ``t* ∈ D_i`` changes the join
size by exactly the number of join combinations of the *other* relations that
agree with ``t*`` on the shared attributes.  The attributes ``R_i`` shares
with the others are exactly the boundary ``∂([m]∖{i})``, so the largest such
change is the boundary query ``LS_i = T_{[m]∖{i}}(I)``, the ``k = 0`` term of
residual sensitivity (Definition 3.6); the local sensitivity is the maximum
over ``i``.  A single table has ``T_∅ = 1``.

For the two-table query this reduces to the paper's
``Δ = max_b max(deg_1(b), deg_2(b))``.
"""

from __future__ import annotations

from repro.relational.instance import Instance
from repro.sensitivity.boundary import boundary_query


def per_relation_local_sensitivity(instance: Instance) -> dict[str, int]:
    """Maximum join-size change from touching one tuple of each relation.

    Returns ``{relation_name: max_t |count(I ± t) − count(I)|}``, which is
    ``T_{[m]∖{i}}(I)`` for relation ``i``.
    """
    indices = range(instance.query.num_relations)
    return {
        schema.name: boundary_query(instance, [other for other in indices if other != index])
        for index, schema in enumerate(instance.query.relations)
    }


def local_sensitivity(instance: Instance) -> int:
    """``LS_count(I)``: the worst-case join-size change over all neighbours."""
    return max(per_relation_local_sensitivity(instance).values())
