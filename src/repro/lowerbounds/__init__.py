"""Hard-instance constructions from the paper's lower-bound proofs.

These builders turn an arbitrary single table into the two-table instances
used by the reductions of Theorems 3.5 and 4.5.  Experiments E3
(Theorem 3.5) and E10 (Theorem 4.5) measure how the released error scales
against the parameterised lower bounds ``min(OUT, √(OUT·Δ)·f_lower)``.
Theorem 1.6's multi-table instance is not built: no experiment measured it.
"""

from repro.lowerbounds.single_table_hard import hard_single_table
from repro.lowerbounds.two_table_hard import (
    TwoTableHardInstance,
    recover_single_table_answers,
    two_table_hard_instance,
)
from repro.lowerbounds.conforming import conforming_two_table_instance

__all__ = [
    "TwoTableHardInstance",
    "conforming_two_table_instance",
    "hard_single_table",
    "recover_single_table_answers",
    "two_table_hard_instance",
]
