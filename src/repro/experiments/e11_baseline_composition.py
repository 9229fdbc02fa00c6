"""E11 — Section 1.2 motivation: synthetic data vs per-query composition.

Answering each of ``|Q|`` queries independently with Laplace noise costs a
``1/|Q|`` slice of the privacy budget per query, so the per-query error grows
linearly with the workload size; one synthetic-data release pays only a
``polylog |Q|`` factor.  The experiment sweeps the workload size on a fixed
instance and reports the error of both approaches.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import ExperimentTable
from repro.baselines.independent_laplace import independent_laplace_answers
from repro.core.pmw import PMWConfig
from repro.core.two_table import two_table_release
from repro.datagen.synthetic import zipf_two_table
from repro.queries.evaluation import shared_evaluator
from repro.queries.workload import Workload


WORKLOAD_SIZES = (8, 64, 256)
NUM_JOIN_VALUES = 12
TUPLES_PER_RELATION = 120
EPSILON = 1.0
DELTA = 1e-5
TRIALS = 2


def run(*, seed: int = 0) -> dict:
    """Sweep |Q| and compare the synthetic-data release with per-query Laplace."""
    rng = np.random.default_rng(seed)
    instance = zipf_two_table(
        NUM_JOIN_VALUES, TUPLES_PER_RELATION, seed=seed, size_a=16, size_c=16
    )
    pmw_config = PMWConfig(max_iterations=24)
    table = ExperimentTable(
        title="E11: error vs workload size — synthetic release vs per-query Laplace",
        columns={
            "workload_size": "|Q|",
            "synthetic_error": "synthetic ℓ∞",
            "laplace_error": "per-query Laplace ℓ∞",
            "ratio": "laplace / synthetic",
        },
    )
    for size in WORKLOAD_SIZES:
        workload = Workload.random_sign(instance.query, size, rng=rng)
        true_answers = shared_evaluator(workload).answers_on_instance(instance)
        synthetic_errors = []
        laplace_errors = []
        for _ in range(TRIALS):
            release = two_table_release(
                instance, workload, EPSILON, DELTA, rng=rng, pmw_config=pmw_config
            )
            synthetic_errors.append(release.max_error(instance, workload))
            baseline = independent_laplace_answers(
                instance, workload, EPSILON, DELTA, rng=rng
            )
            laplace_errors.append(float(np.max(np.abs(baseline.answers - true_answers))))
        synthetic_error = float(np.median(synthetic_errors))
        laplace_error = float(np.median(laplace_errors))
        table.add_row(
            workload_size=len(workload),
            synthetic_error=synthetic_error,
            laplace_error=laplace_error,
            ratio=laplace_error / synthetic_error if synthetic_error > 0 else float("inf"),
        )
    return {"table": table}
