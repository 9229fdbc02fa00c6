"""Hard-instance constructions from the paper's lower-bound proofs.

These builders turn an arbitrary single table into the two-table instances
used by the reductions of Theorems 3.5 and 4.5.  Experiments E3
(Theorem 3.5) and E10 (Theorem 4.5) measure how the released error scales
against the parameterised lower bounds ``min(OUT, √(OUT·Δ)·f_lower)``.
Theorem 1.6's multi-table instance is not built: no experiment measured it.
"""
