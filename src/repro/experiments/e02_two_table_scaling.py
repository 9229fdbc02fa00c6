"""E2 — Theorem 3.3: two-table error scaling with join size and sensitivity.

Uniform-degree instances are swept over the number of join values (scaling
``OUT`` with Δ fixed) and over the degree (scaling both ``OUT`` and ``Δ``);
the measured ℓ∞ error of Algorithm 1 is compared against the Theorem 3.3
prediction ``(sqrt(OUT·(Δ+λ)) + (Δ+λ)·sqrt(λ))·f_upper``.  The paper gives an
upper bound, so the benchmark asserts the measured/predicted ratio stays
bounded (the shape matches) rather than expecting equality.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import theorem_33_error
from repro.analysis.reporting import ExperimentTable
from repro.core.pmw import PMWConfig
from repro.core.two_table import two_table_release
from repro.datagen.synthetic import uniform_two_table
from repro.queries.workload import Workload
from repro.relational.join import join_size
from repro.sensitivity.local import local_sensitivity


def run(
    *,
    num_values_sweep: tuple[int, ...] = (4, 8, 16, 32),
    degree_sweep: tuple[int, ...] = (2, 4, 8, 16),
    base_num_values: int = 8,
    base_degree: int = 4,
    num_queries: int = 40,
    epsilon: float = 1.0,
    delta: float = 1e-5,
    trials: int = 3,
    seed: int = 0,
) -> dict:
    """Sweep OUT (via the number of join values) and Δ (via the degree)."""
    rng = np.random.default_rng(seed)
    pmw_config = PMWConfig(max_iterations=20)
    table = ExperimentTable(
        title="E2: two-table error vs Theorem 3.3 prediction",
        columns=["sweep", "n", "OUT", "Δ", "measured ℓ∞", "predicted", "ratio"],
    )
    rows: list[dict] = []

    def measure(instance, sweep_label: str) -> None:
        workload = Workload.random_sign(instance.query, num_queries, rng=rng)
        errors = []
        for _ in range(trials):
            result = two_table_release(
                instance, workload, epsilon, delta, rng=rng, pmw_config=pmw_config
            )
            errors.append(result.max_error(instance, workload))
        out = join_size(instance)
        delta_ls = local_sensitivity(instance)
        predicted = theorem_33_error(
            out,
            delta_ls,
            instance.query.joint_domain_size,
            len(workload),
            epsilon,
            delta,
        )
        measured = float(np.median(errors))
        row = {
            "sweep": sweep_label,
            "n": instance.total_size(),
            "join_size": out,
            "local_sensitivity": delta_ls,
            "measured": measured,
            "predicted": predicted,
            "ratio": measured / predicted if predicted > 0 else float("inf"),
        }
        rows.append(row)
        table.add_row(
            [sweep_label, row["n"], out, delta_ls, measured, predicted, row["ratio"]]
        )

    for num_values in num_values_sweep:
        measure(uniform_two_table(num_values, base_degree), f"OUT sweep (deg={base_degree})")
    for degree in degree_sweep:
        measure(uniform_two_table(base_num_values, degree), f"Δ sweep (values={base_num_values})")
    return {
        "table": table,
        "rows": rows,
        "epsilon": epsilon,
        "delta": delta,
    }
