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


SCALE_SWEEP = (0.25, 0.5, 1.0)
NUM_QUERIES = 20
EPSILON = 1.0
DELTA = 1e-4
TRIALS = 2


def run(*, seed: int = 0) -> dict:
    """Sweep the TPC-H scale factor for the 3-table chain."""
    rng = np.random.default_rng(seed)
    pmw_config = PMWConfig(max_iterations=20)
    table = ExperimentTable(
        title="E5: 3-table chain — measured error vs Theorem 1.5 prediction",
        columns={
            "scale": "scale",
            "n": "n",
            "join_size": "OUT",
            "residual_sensitivity": "RS^β",
            "measured": "measured ℓ∞",
            "predicted": "predicted",
            "ratio": "ratio",
        },
    )
    beta = default_beta(EPSILON, DELTA)
    for scale in SCALE_SWEEP:
        data = generate_tpch(scale, seed=seed + int(scale * 1000))
        instance = data.nation_customer_orders
        workload = Workload.random_sign(instance.query, NUM_QUERIES, rng=rng)
        errors = []
        for _ in range(TRIALS):
            result = multi_table_release(
                instance, workload, EPSILON, DELTA, rng=rng, pmw_config=pmw_config
            )
            errors.append(result.max_error(instance, workload))
        out = join_size(instance)
        rs_value = residual_sensitivity(instance, beta)
        predicted = theorem_15_error(
            out,
            rs_value,
            instance.query.joint_domain_size,
            len(workload),
            EPSILON,
            DELTA,
        )
        measured = float(np.median(errors))
        table.add_row(
            scale=scale,
            n=instance.total_size(),
            join_size=out,
            residual_sensitivity=rs_value,
            measured=measured,
            predicted=predicted,
            ratio=measured / predicted if predicted > 0 else float("inf"),
        )
    return {"table": table}
