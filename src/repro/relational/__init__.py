"""Relational substrate: annotated relations, join queries, and instances.

The paper models each table as a *frequency function* ``R_i : D_i -> Z>=0``
over the finite domain ``D_i`` (the cross product of its attribute domains).
This subpackage implements that model directly with dense non-negative integer
``numpy`` arrays (one axis per attribute), together with the join-query
hypergraph machinery (boundaries, hierarchical attribute trees) that the
sensitivity and partitioning code in the rest of the library builds on.
"""
