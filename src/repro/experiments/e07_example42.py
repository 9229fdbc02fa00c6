"""E7 — Example 4.2: the polynomial gap between Algorithms 1 and 4.

The Example 4.2 family (``k²/8^i`` join values of degree ``2^i``) has
``Δ = k^{2/3}`` and ``OUT = Θ(k² log k)``; the paper computes a theoretical
error of ``Θ(k^{4/3})`` for the join-as-one algorithm versus ``Θ(k log² k)``
for uniformization — a gap growing like ``k^{1/3}``.  The experiment reports
both the theoretical expressions and the measured errors across ``k``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import theorem_33_error, theorem_44_error
from repro.analysis.reporting import ExperimentTable
from repro.core.pmw import PMWConfig
from repro.core.two_table import two_table_release
from repro.core.uniformize import uniformize_release
from repro.datagen.synthetic import example42_instance
from repro.experiments.e06_uniformize_two_table import uniform_bucket_join_sizes
from repro.mechanisms.truncated_laplace import default_lambda
from repro.queries.workload import Workload
from repro.relational.join import join_size
from repro.sensitivity.local import local_sensitivity


K_SWEEP = (4, 6, 8)
NUM_QUERIES = 20
EPSILON = 1.0
DELTA = 1e-4
TRIALS = 2


def run(*, seed: int = 0) -> dict:
    """Measure the join-as-one vs uniformized gap on Example 4.2 instances."""
    rng = np.random.default_rng(seed)
    pmw_config = PMWConfig(max_iterations=16)
    lam_value = default_lambda(EPSILON, DELTA)
    table = ExperimentTable(
        title="E7: Example 4.2 — measured and theoretical gap vs k^(1/3)",
        columns={
            "k": "k",
            "n": "n",
            "join_size": "OUT",
            "local_sensitivity": "Δ",
            "join_as_one": "join-as-one ℓ∞",
            "uniformized": "uniformized ℓ∞",
            "theory_ratio": "theory ratio",
            "k_power_one_third": "k^(1/3)",
        },
    )
    for k in K_SWEEP:
        instance = example42_instance(k)
        workload = Workload.random_sign(instance.query, NUM_QUERIES, rng=rng)

        def median_error(uniformized: bool) -> float:
            errors = []
            for _ in range(TRIALS):
                if uniformized:
                    result = uniformize_release(
                        instance,
                        workload,
                        EPSILON,
                        DELTA,
                        method="two_table",
                        rng=rng,
                        pmw_config=pmw_config,
                    )
                else:
                    result = two_table_release(
                        instance, workload, EPSILON, DELTA, rng=rng, pmw_config=pmw_config
                    )
                errors.append(result.max_error(instance, workload))
            return float(np.median(errors))

        out = join_size(instance)
        delta_ls = local_sensitivity(instance)
        bound_33 = theorem_33_error(
            out, delta_ls, instance.query.joint_domain_size, len(workload), EPSILON, DELTA
        )
        bound_44 = theorem_44_error(
            uniform_bucket_join_sizes(instance, lam_value),
            delta_ls,
            instance.query.joint_domain_size,
            len(workload),
            EPSILON,
            DELTA,
        )
        table.add_row(
            k=k,
            n=instance.total_size(),
            join_size=out,
            local_sensitivity=delta_ls,
            join_as_one=median_error(False),
            uniformized=median_error(True),
            theory_ratio=bound_33 / bound_44 if bound_44 > 0 else float("inf"),
            k_power_one_third=k ** (1.0 / 3.0),
        )
    return {"table": table}
