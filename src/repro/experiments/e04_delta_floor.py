"""E4 — Theorem 3.4: the Ω(Δ) error floor on the counting query.

Theorem 3.4 shows any DP algorithm must err by Ω(Δ) on instances of local
sensitivity Δ, because neighbouring instances can differ by Δ in their join
size.  The experiment measures the counting-query error of Algorithm 1 on
uniform instances of increasing degree and confirms the error grows at least
linearly in Δ (it is Θ(Δ·λ) for the truncated-Laplace count release).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import ExperimentTable
from repro.core.pmw import PMWConfig
from repro.core.two_table import two_table_release
from repro.datagen.synthetic import uniform_two_table
from repro.mechanisms.truncated_laplace import default_lambda
from repro.queries.workload import Workload
from repro.relational.join import join_size
from repro.sensitivity.local import local_sensitivity


DEGREE_SWEEP = (1, 4, 16, 64)
NUM_VALUES = 4
EPSILON = 1.0
DELTA = 1e-5
TRIALS = 4


def run(*, seed: int = 0) -> dict:
    """Measure the count error as the local sensitivity grows."""
    rng = np.random.default_rng(seed)
    pmw_config = PMWConfig(max_iterations=8)
    lam_value = default_lambda(EPSILON, DELTA)
    table = ExperimentTable(
        title="E4: counting-query error vs local sensitivity Δ (Ω(Δ) floor)",
        columns={
            "delta_ls": "Δ",
            "join_size": "OUT",
            "count_error": "median |count error|",
            "error_over_delta": "error / Δ",
            "error_over_delta_lambda": "error / (Δ·λ)",
        },
    )
    for degree in DEGREE_SWEEP:
        instance = uniform_two_table(NUM_VALUES, degree)
        workload = Workload.counting(instance.query)
        true_count = float(join_size(instance))
        errors = []
        for _ in range(TRIALS):
            result = two_table_release(
                instance, workload, EPSILON, DELTA, rng=rng, pmw_config=pmw_config
            )
            released_count = result.synthetic.answer(workload[0])
            errors.append(abs(released_count - true_count))
        measured_ls = local_sensitivity(instance)
        median_error = float(np.median(errors))
        table.add_row(
            delta_ls=measured_ls,
            join_size=true_count,
            count_error=median_error,
            error_over_delta=median_error / max(measured_ls, 1),
            error_over_delta_lambda=median_error / (max(measured_ls, 1) * lam_value),
        )
    return {"table": table}
