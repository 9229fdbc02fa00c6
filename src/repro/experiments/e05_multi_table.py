"""E5 — Theorem 1.5 / Algorithm 3: multi-table error vs residual sensitivity.

Three-table chain instances (TPC-H-style Nation ⋈ Customer ⋈ Orders) are
swept over scale; the measured ℓ∞ error of Algorithm 3 is compared against
the Theorem 1.5 prediction ``(sqrt(count·RS) + RS·sqrt(λ))·f_upper``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import theorem_15_error
from repro.analysis.reporting import ExperimentTable
from repro.core.multi_table import default_beta, multi_table_release
from repro.core.pmw import PMWConfig
from repro.datagen.tpch import generate_tpch
from repro.queries.workload import Workload
from repro.relational.join import join_size
from repro.sensitivity.residual import residual_sensitivity


def run(
    *,
    scale_sweep: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0),
    num_queries: int = 30,
    epsilon: float = 1.0,
    delta: float = 1e-4,
    trials: int = 2,
    seed: int = 0,
) -> dict:
    """Sweep the TPC-H scale factor for the 3-table chain."""
    rng = np.random.default_rng(seed)
    pmw_config = PMWConfig(max_iterations=20)
    table = ExperimentTable(
        title="E5: 3-table chain — measured error vs Theorem 1.5 prediction",
        columns=["scale", "n", "OUT", "RS^β", "measured ℓ∞", "predicted", "ratio"],
    )
    rows: list[dict] = []
    beta = default_beta(epsilon, delta)
    for scale in scale_sweep:
        data = generate_tpch(scale, seed=seed + int(scale * 1000))
        instance = data.nation_customer_orders
        workload = Workload.random_sign(instance.query, num_queries, rng=rng)
        errors = []
        for _ in range(trials):
            result = multi_table_release(
                instance, workload, epsilon, delta, rng=rng, pmw_config=pmw_config
            )
            errors.append(result.max_error(instance, workload))
        out = join_size(instance)
        rs_value = residual_sensitivity(instance, beta)
        predicted = theorem_15_error(
            out,
            rs_value,
            instance.query.joint_domain_size,
            len(workload),
            epsilon,
            delta,
        )
        measured = float(np.median(errors))
        row = {
            "scale": scale,
            "n": instance.total_size(),
            "join_size": out,
            "residual_sensitivity": rs_value,
            "measured": measured,
            "predicted": predicted,
            "ratio": measured / predicted if predicted > 0 else float("inf"),
        }
        rows.append(row)
        table.add_row(
            [scale, row["n"], out, rs_value, measured, predicted, row["ratio"]]
        )
    return {"table": table, "rows": rows, "beta": beta, "epsilon": epsilon, "delta": delta}
