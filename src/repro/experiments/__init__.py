"""The experiment harness: one module per reproduced paper artefact.

Every experiment (``E1 ... E14``) lives in its own module, whose
docstring names the paper artefact it reproduces.  It runs at one size, set
by the module's constants, and its ``run(*, seed=0)`` returns a dictionary
whose ``"table"`` entry (an
:class:`repro.analysis.reporting.ExperimentTable`) is the run's one record:
each row holds raw values under the table's column keys.  E8 and E14 record
one value per quantity, so they return those values as ``"values"`` and
print them as a quantity/value table.  Any other entry is a value a claim
reads that the table does not hold (E1's ε and δ, E3's n, E14's budget).
``tests/experiments/test_claims.py`` asserts the paper's claims on those
values at seeds 0, 1 and 2, and the CLI (``python -m repro.cli run eN --seed
S``) prints the table of the same run.
With ``--telemetry`` the CLI traces each run as an ``experiment.<id>`` span
and prints the snapshot itself, so a runner returns the same dictionary
with telemetry on or off.
"""

from repro.experiments import (
    e01_flawed_variants,
    e02_two_table_scaling,
    e03_lower_bound_two_table,
    e04_delta_floor,
    e05_multi_table,
    e06_uniformize_two_table,
    e07_example42,
    e08_hierarchical,
    e09_worst_case_agm,
    e10_conforming,
    e11_baseline_composition,
    e12_tpch,
    e13_single_table_pmw,
    e14_privacy_audit,
)

EXPERIMENTS = {
    "e1": e01_flawed_variants.run,
    "e2": e02_two_table_scaling.run,
    "e3": e03_lower_bound_two_table.run,
    "e4": e04_delta_floor.run,
    "e5": e05_multi_table.run,
    "e6": e06_uniformize_two_table.run,
    "e7": e07_example42.run,
    "e8": e08_hierarchical.run,
    "e9": e09_worst_case_agm.run,
    "e10": e10_conforming.run,
    "e11": e11_baseline_composition.run,
    "e12": e12_tpch.run,
    "e13": e13_single_table_pmw.run,
    "e14": e14_privacy_audit.run,
}

DESCRIPTIONS = {
    "e1": "Figure 1 / Example 3.1 — flawed join-as-one variants leak, Algorithm 1 does not",
    "e2": "Theorem 3.3 — two-table error scaling in OUT and Δ",
    "e3": "Figure 2 / Theorem 3.5 — hard-instance reduction lower bound",
    "e4": "Theorem 3.4 — Ω(Δ) error floor on the counting query",
    "e5": "Theorem 1.5 / Algorithm 3 — multi-table error vs residual sensitivity",
    "e6": "Figure 3 / Theorem 4.4 — uniformized two-table vs join-as-one",
    "e7": "Example 4.2 — k^(1/3) improvement of uniformization",
    "e8": "Figure 4 / Theorem C.2 — hierarchical partition and release",
    "e9": "Appendix B.3 — worst-case sensitivity/error vs the AGM bound",
    "e10": "Theorem 4.5 — conforming instances and the per-bucket bound",
    "e11": "Section 1.2 — synthetic data vs per-query Laplace composition",
    "e12": "TPC-H-style end-to-end workloads",
    "e13": "Theorem 1.3 — single-table PMW sanity",
    "e14": "Lemmas 3.2/3.7/4.1 — empirical privacy audit",
}

__all__ = ["EXPERIMENTS", "DESCRIPTIONS"]
