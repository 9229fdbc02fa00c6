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


def run(
    *,
    n_sweep: tuple[int, ...] = (50, 200, 800),
    domain_shape: dict[str, int] | None = None,
    num_queries: int = 40,
    epsilon: float = 1.0,
    delta: float = 1e-5,
    trials: int = 3,
    seed: int = 0,
) -> dict:
    """Sweep the table size n and compare the error against √n·f_upper."""
    if domain_shape is None:
        domain_shape = {"X": 16, "Y": 16}
    rng = np.random.default_rng(seed)
    query = single_table_query(domain_shape)
    pmw_config = PMWConfig(max_iterations=30)
    table = ExperimentTable(
        title="E13: single-table PMW — error vs √n·f_upper",
        columns=["n", "measured ℓ∞", "√n·f_upper", "ratio"],
    )
    rows: list[dict] = []
    for n in n_sweep:
        instance = random_instance(query, n, rng=rng)
        workload = Workload.random_sign(query, num_queries, rng=rng)
        errors = []
        for _ in range(trials):
            result = release_synthetic_data(
                instance,
                workload,
                epsilon,
                delta,
                method="single_table",
                rng=rng,
                pmw_config=pmw_config,
            )
            errors.append(result.max_error(instance, workload))
        measured = float(np.median(errors))
        predicted = sqrt(n) * f_upper(
            query.joint_domain_size, len(workload), epsilon, delta
        )
        row = {
            "n": instance.total_size(),
            "measured": measured,
            "predicted": predicted,
            "ratio": measured / predicted if predicted > 0 else float("inf"),
        }
        rows.append(row)
        table.add_row([row["n"], measured, predicted, row["ratio"]])
    return {"table": table, "rows": rows, "epsilon": epsilon, "delta": delta}
