"""E10 — Theorem 4.5: conforming instances and the per-bucket bound.

Instances conforming to a join-size vector ``(OUT_1, OUT_2, ...)`` are built
explicitly; the uniformized algorithm's measured error is compared against
the per-bucket lower bound ``max_i min(OUT_i, sqrt(OUT_i·2^i·λ)·f_lower)`` and
the matching Theorem 4.4 upper bound.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import (
    theorem_44_error,
    theorem_45_lower_bound,
)
from repro.analysis.reporting import ExperimentTable
from repro.core.pmw import PMWConfig
from repro.core.uniformize import uniformize_release
from repro.lowerbounds.conforming import conforming_two_table_instance
from repro.mechanisms.truncated_laplace import default_lambda
from repro.queries.workload import Workload
from repro.sensitivity.local import local_sensitivity


OUT_VECTORS = ({1: 200}, {1: 100, 2: 200}, {1: 50, 2: 100, 3: 400})
NUM_QUERIES = 20
EPSILON = 1.0
DELTA = 1e-3
TRIALS = 2


def run(*, seed: int = 0) -> dict:
    """Sweep join-size vectors and compare measured error against Theorem 4.5."""
    rng = np.random.default_rng(seed)
    pmw_config = PMWConfig(max_iterations=14)
    lam_value = default_lambda(EPSILON, DELTA)
    table = ExperimentTable(
        title="E10: conforming instances — measured error vs Theorem 4.5 / 4.4 bounds",
        columns={
            "out_vector": "OUT vector",
            "n": "n",
            "local_sensitivity": "Δ",
            "measured": "measured ℓ∞",
            "lower_bound": "lower bound",
            "upper_bound": "upper bound",
        },
    )
    for out_vector in OUT_VECTORS:
        conforming = conforming_two_table_instance(out_vector, lam_value)
        instance = conforming.instance
        workload = Workload.random_sign(instance.query, NUM_QUERIES, rng=rng)
        errors = []
        for _ in range(TRIALS):
            result = uniformize_release(
                instance,
                workload,
                EPSILON,
                DELTA,
                method="two_table",
                rng=rng,
                pmw_config=pmw_config,
            )
            errors.append(result.max_error(instance, workload))
        max_bucket = max(conforming.bucket_join_sizes)
        bucket_sizes = [
            float(conforming.bucket_join_sizes.get(index, 0))
            for index in range(1, max_bucket + 1)
        ]
        delta_ls = local_sensitivity(instance)
        table.add_row(
            out_vector=dict(out_vector),
            n=instance.total_size(),
            local_sensitivity=delta_ls,
            measured=float(np.median(errors)),
            lower_bound=theorem_45_lower_bound(
                bucket_sizes, instance.query.joint_domain_size, EPSILON, DELTA
            ),
            upper_bound=theorem_44_error(
                bucket_sizes,
                delta_ls,
                instance.query.joint_domain_size,
                len(workload),
                EPSILON,
                DELTA,
            ),
        )
    return {"table": table}
