"""E6 — Figure 3 / Theorem 4.4: uniformization on a maximally skewed instance.

On the Figure 3 instance (one join value of degree ``i`` for each ``i ≤ √n``)
the join-as-one algorithm pays ``sqrt(OUT·Δ) ≈ n`` while the uniformized
algorithm pays ``Σ_i sqrt(OUT_i·2^i·λ)``, which is smaller by roughly
``n^{1/4}`` for large ``n``.  The experiment measures both algorithms and the
two theoretical predictions across a sweep of ``n``.
"""

from __future__ import annotations

from math import ceil, log2

import numpy as np

from repro.analysis.bounds import theorem_33_error, theorem_44_error
from repro.analysis.reporting import ExperimentTable
from repro.core.pmw import PMWConfig
from repro.core.two_table import two_table_release
from repro.core.uniformize import uniformize_release
from repro.datagen.synthetic import figure3_instance
from repro.mechanisms.truncated_laplace import default_lambda
from repro.queries.workload import Workload
from repro.relational.join import join_size
from repro.sensitivity.configurations import bucket_index
from repro.sensitivity.degrees import degree_vector
from repro.sensitivity.local import local_sensitivity

N_SWEEP = (64, 144, 256)
NUM_QUERIES = 24
EPSILON = 1.0
DELTA = 1e-4
TRIALS = 2


def uniform_bucket_join_sizes(instance, lam_value: float) -> list[float]:
    """Join size of every uniform-partition bucket (Definition 4.3)."""
    shared = sorted(instance.query.boundary((0,)))
    first = degree_vector(instance, [0], shared).reshape(-1)
    second = degree_vector(instance, [1], shared).reshape(-1)
    degrees = np.maximum(first, second)
    product = (first * second).astype(float)
    num_buckets = max(1, int(ceil(log2(max(degrees.max() / lam_value, 1.0)))) + 1)
    sizes = [0.0] * num_buckets
    for degree, joint in zip(degrees, product):
        if degree <= 0:
            continue
        sizes[bucket_index(degree, lam_value) - 1] += joint
    return sizes


def run(*, seed: int = 0) -> dict:
    """Compare Algorithm 1 and Algorithm 4 on the Figure 3 instances."""
    rng = np.random.default_rng(seed)
    pmw_config = PMWConfig(max_iterations=16)
    lam_value = default_lambda(EPSILON, DELTA)
    table = ExperimentTable(
        title="E6: Figure 3 instance — join-as-one vs uniformized",
        columns={
            "n": "n",
            "join_size": "OUT",
            "local_sensitivity": "Δ",
            "join_as_one": "join-as-one ℓ∞",
            "uniformized": "uniformized ℓ∞",
            "bound_33": "thm 3.3 bound",
            "bound_44": "thm 4.4 bound",
        },
    )
    for n in N_SWEEP:
        instance = figure3_instance(n)
        workload = Workload.random_sign(instance.query, NUM_QUERIES, rng=rng)

        def median_error(method: str) -> float:
            errors = []
            for _ in range(TRIALS):
                if method == "two_table":
                    result = two_table_release(
                        instance, workload, EPSILON, DELTA, rng=rng, pmw_config=pmw_config
                    )
                else:
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
            return float(np.median(errors))

        out = join_size(instance)
        delta_ls = local_sensitivity(instance)
        table.add_row(
            n=instance.total_size(),
            join_size=out,
            local_sensitivity=delta_ls,
            join_as_one=median_error("two_table"),
            uniformized=median_error("uniformize"),
            bound_33=theorem_33_error(
                out, delta_ls, instance.query.joint_domain_size, len(workload), EPSILON, DELTA
            ),
            bound_44=theorem_44_error(
                uniform_bucket_join_sizes(instance, lam_value),
                delta_ls,
                instance.query.joint_domain_size,
                len(workload),
                EPSILON,
                DELTA,
            ),
        )
    return {"table": table}
