"""E12 — End-to-end TPC-H-style workloads.

Two joins from the scaled-down TPC-H generator are released under DP and
evaluated against analyst-style workloads:

* ``Customer ⋈ Orders`` with the per-segment / per-priority marginal workload;
* ``Nation ⋈ Customer ⋈ Orders`` (three-table chain) with random predicate
  queries.

Reported metrics are absolute ℓ∞ error and the error relative to the join
size, across scale factors — the end-to-end "does it work on realistic data"
check suggested by the reproduction hint.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.reporting import ExperimentTable
from repro.core.multi_table import multi_table_release
from repro.core.pmw import PMWConfig
from repro.core.two_table import two_table_release
from repro.datagen.tpch import generate_tpch
from repro.queries.evaluation import shared_evaluator
from repro.queries.workload import Workload
from repro.relational.join import join_size


SCALE_SWEEP = (0.5, 1.0, 2.0)
EPSILON = 1.0
DELTA = 1e-5
NUM_PREDICATE_QUERIES = 16


def run(*, seed: int = 0) -> dict:
    """Release the TPC-H-style joins and tabulate error and runtime by scale."""
    rng = np.random.default_rng(seed)
    pmw_config = PMWConfig(max_iterations=24)
    table = ExperimentTable(
        title="E12: TPC-H-style releases",
        columns={
            "join": "join",
            "scale": "scale",
            "n": "n",
            "join_size": "OUT",
            "num_queries": "|Q|",
            "error": "ℓ∞ error",
            "relative_error": "relative error",
            "runtime": "runtime (s)",
        },
    )

    def measure(join: str, scale: float, instance, workload, release) -> None:
        # Build the evaluator's stacks before the timer: runtime is the release alone.
        shared_evaluator(workload).answers_on_instance(instance)
        start = time.perf_counter()
        result = release(instance, workload, EPSILON, DELTA, rng=rng, pmw_config=pmw_config)
        runtime = time.perf_counter() - start
        error = result.max_error(instance, workload)
        out = join_size(instance)
        table.add_row(
            join=join,
            scale=scale,
            n=instance.total_size(),
            join_size=out,
            num_queries=len(workload),
            error=error,
            relative_error=error / max(out, 1),
            runtime=runtime,
        )

    for scale in SCALE_SWEEP:
        data = generate_tpch(scale, seed=seed + int(scale * 100))

        # Customer ⋈ Orders with marginal workloads on the categorical columns.
        instance = data.customer_orders
        workload = Workload.attribute_marginals(instance.query, "segment").extended(
            Workload.attribute_marginals(
                instance.query, "priority", include_counting=False
            ).queries
        )
        measure("Customer⋈Orders", scale, instance, workload, two_table_release)

        # Nation ⋈ Customer ⋈ Orders with random predicate queries.
        instance = data.nation_customer_orders
        workload = Workload.random_predicates(
            instance.query, NUM_PREDICATE_QUERIES, selectivity=0.4, rng=rng
        )
        measure("Nation⋈Cust⋈Orders", scale, instance, workload, multi_table_release)
    return {"table": table}
