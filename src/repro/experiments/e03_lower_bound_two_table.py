"""E3 — Figure 2 / Theorem 3.5: the hard-instance reduction.

A hard single table ``T`` with ``n`` records is lifted into the two-table
instance of Figure 2 (join size ``OUT = n·Δ``, local sensitivity ``Δ``).  The
reduction guarantees ``q'(I) = Δ·q(T)``; running Algorithm 1 on the lifted
instance and dividing the released answers by ``Δ`` therefore yields a
single-table release whose error is the lifted error over ``Δ``.  The
experiment reports the measured lifted error against the parameterised lower
bound ``min(OUT, sqrt(OUT·Δ)·f_lower)`` across a sweep of ``Δ``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import theorem_33_error, theorem_35_lower_bound
from repro.analysis.reporting import ExperimentTable
from repro.core.pmw import PMWConfig
from repro.core.two_table import two_table_release
from repro.lowerbounds.single_table_hard import hard_single_table
from repro.lowerbounds.two_table_hard import (
    recover_single_table_answers,
    two_table_hard_instance,
)
from repro.sensitivity.local import local_sensitivity


N = 12
DOMAIN_SIZE = 6
NUM_QUERIES = 20
DELTA_SWEEP = (1, 2, 4, 8)
EPSILON = 1.0
DELTA = 1e-5


def run(*, seed: int = 0) -> dict:
    """Sweep the amplification factor Δ of the Theorem 3.5 construction."""
    rng = np.random.default_rng(seed)
    source = hard_single_table(N, DOMAIN_SIZE, NUM_QUERIES, rng=rng)
    pmw_config = PMWConfig(max_iterations=16)
    table = ExperimentTable(
        title="E3: lifted hard instance — measured error vs √(OUT·Δ)·f_lower",
        columns={
            "delta": "Δ",
            "join_size": "OUT",
            "local_sensitivity": "LS(I)",
            "lifted_error": "lifted ℓ∞",
            "recovered_error": "recovered ℓ∞",
            "lower_bound": "lower bound",
            "upper_bound": "upper bound",
        },
    )
    for amplification in DELTA_SWEEP:
        hard = two_table_hard_instance(source, amplification)
        instance, workload = hard.instance, hard.workload
        result = two_table_release(
            instance, workload, EPSILON, DELTA, rng=rng, pmw_config=pmw_config
        )
        recovered = recover_single_table_answers(hard, result.answer_workload(workload))
        measured_ls = local_sensitivity(instance)
        table.add_row(
            delta=amplification,
            join_size=hard.join_size,
            local_sensitivity=measured_ls,
            lifted_error=result.max_error(instance, workload),
            recovered_error=float(np.max(np.abs(recovered - source.true_answers()))),
            lower_bound=theorem_35_lower_bound(
                hard.join_size, amplification, instance.query.joint_domain_size, EPSILON
            ),
            upper_bound=theorem_33_error(
                hard.join_size,
                measured_ls,
                instance.query.joint_domain_size,
                len(workload),
                EPSILON,
                DELTA,
            ),
        )
    return {"table": table, "n": N}
