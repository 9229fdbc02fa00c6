"""E13 — Theorem 1.3: single-table PMW sanity check.

The degenerate one-relation query makes the release problem exactly the
classic single-table synthetic-data problem; the measured error should scale
like ``sqrt(n)·f_upper``.  This experiment pins the substrate the multi-table
algorithms are built on.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from repro.analysis.bounds import f_upper
from repro.analysis.reporting import ExperimentTable
from repro.core.pmw import PMWConfig
from repro.core.release import release_synthetic_data
from repro.datagen.random_instances import random_instance
from repro.queries.workload import Workload
from repro.relational.hypergraph import single_table_query


N_SWEEP = (50, 200, 800)
DOMAIN_SHAPE = {"X": 16, "Y": 16}
NUM_QUERIES = 32
EPSILON = 1.0
DELTA = 1e-5
TRIALS = 2


def run(*, seed: int = 0) -> dict:
    """Sweep the table size n and compare the error against √n·f_upper."""
    rng = np.random.default_rng(seed)
    query = single_table_query(DOMAIN_SHAPE)
    pmw_config = PMWConfig(max_iterations=30)
    table = ExperimentTable(
        title="E13: single-table PMW — error vs √n·f_upper",
        columns={
            "n": "n",
            "measured": "measured ℓ∞",
            "predicted": "√n·f_upper",
            "ratio": "ratio",
        },
    )
    for n in N_SWEEP:
        instance = random_instance(query, n, rng=rng)
        workload = Workload.random_sign(query, NUM_QUERIES, rng=rng)
        errors = []
        for _ in range(TRIALS):
            result = release_synthetic_data(
                instance,
                workload,
                EPSILON,
                DELTA,
                method="single_table",
                rng=rng,
                pmw_config=pmw_config,
            )
            errors.append(result.max_error(instance, workload))
        measured = float(np.median(errors))
        predicted = sqrt(n) * f_upper(
            query.joint_domain_size, len(workload), EPSILON, DELTA
        )
        table.add_row(
            n=instance.total_size(),
            measured=measured,
            predicted=predicted,
            ratio=measured / predicted if predicted > 0 else float("inf"),
        )
    return {"table": table}
