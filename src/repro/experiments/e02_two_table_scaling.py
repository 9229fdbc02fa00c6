"""E2 — Theorem 3.3: two-table error scaling with join size and sensitivity.

Uniform-degree instances are swept over the number of join values (scaling
``OUT`` with Δ fixed) and over the degree (scaling both ``OUT`` and ``Δ``);
the measured ℓ∞ error of Algorithm 1 is compared against the Theorem 3.3
prediction ``(sqrt(OUT·(Δ+λ)) + (Δ+λ)·sqrt(λ))·f_upper``.  The paper gives an
upper bound, so ``tests/experiments/test_claims.py`` asserts the
measured/predicted ratio stays bounded (the shape matches) rather than
expecting equality.
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


NUM_VALUES_SWEEP = (4, 8, 16)
DEGREE_SWEEP = (2, 4, 8)
BASE_NUM_VALUES = 8
BASE_DEGREE = 4
NUM_QUERIES = 24
EPSILON = 1.0
DELTA = 1e-5
TRIALS = 2


def run(*, seed: int = 0) -> dict:
    """Sweep OUT (via the number of join values) and Δ (via the degree)."""
    rng = np.random.default_rng(seed)
    pmw_config = PMWConfig(max_iterations=20)
    table = ExperimentTable(
        title="E2: two-table error vs Theorem 3.3 prediction",
        columns={
            "sweep": "sweep",
            "n": "n",
            "join_size": "OUT",
            "local_sensitivity": "Δ",
            "measured": "measured ℓ∞",
            "predicted": "predicted",
            "ratio": "ratio",
        },
    )

    def measure(instance, sweep_label: str) -> None:
        workload = Workload.random_sign(instance.query, NUM_QUERIES, rng=rng)
        errors = []
        for _ in range(TRIALS):
            result = two_table_release(
                instance, workload, EPSILON, DELTA, rng=rng, pmw_config=pmw_config
            )
            errors.append(result.max_error(instance, workload))
        out = join_size(instance)
        delta_ls = local_sensitivity(instance)
        predicted = theorem_33_error(
            out,
            delta_ls,
            instance.query.joint_domain_size,
            len(workload),
            EPSILON,
            DELTA,
        )
        measured = float(np.median(errors))
        table.add_row(
            sweep=sweep_label,
            n=instance.total_size(),
            join_size=out,
            local_sensitivity=delta_ls,
            measured=measured,
            predicted=predicted,
            ratio=measured / predicted if predicted > 0 else float("inf"),
        )

    for num_values in NUM_VALUES_SWEEP:
        measure(uniform_two_table(num_values, BASE_DEGREE), f"OUT sweep (deg={BASE_DEGREE})")
    for degree in DEGREE_SWEEP:
        measure(uniform_two_table(BASE_NUM_VALUES, degree), f"Δ sweep (values={BASE_NUM_VALUES})")
    return {"table": table}
