"""Baseline: answer every query independently with Laplace noise.

This is the approach the paper's introduction argues against: under basic
composition each of the ``|Q|`` queries only gets an ``ε/|Q|`` share of the
budget, so the per-query noise grows linearly with the workload size, whereas
one synthetic-data release pays only a ``polylog |Q|`` factor.

The noise is calibrated to a privately estimated sensitivity bound: the noisy
local sensitivity for two-table queries (as in Algorithm 1) and the noisy
residual sensitivity otherwise (as in Algorithm 3).  Half of the budget funds
the sensitivity estimate and half is split across the queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.multi_table import default_beta, noisy_residual_sensitivity
from repro.core.two_table import noisy_local_sensitivity
from repro.mechanisms.laplace import sample_laplace
from repro.mechanisms.rng import require_generator
from repro.queries.evaluation import shared_evaluator
from repro.queries.workload import Workload
from repro.relational.instance import Instance


@dataclass
class IndependentLaplaceResult:
    """Per-query noisy answers released under basic composition."""

    answers: np.ndarray
    sensitivity_bound: float
    per_query_epsilon: float


def independent_laplace_answers(
    instance: Instance,
    workload: Workload,
    epsilon: float,
    delta: float,
    *,
    rng: np.random.Generator,
) -> IndependentLaplaceResult:
    """Answer the workload query-by-query with Laplace noise (the composition baseline)."""
    require_generator(rng)
    query = instance.query
    num_queries = len(workload)

    if query.num_relations <= 2:
        sensitivity_bound = noisy_local_sensitivity(instance, epsilon / 2.0, delta / 2.0, rng=rng)
    else:
        sensitivity_bound = noisy_residual_sensitivity(
            instance, epsilon / 2.0, delta / 2.0, default_beta(epsilon, delta), rng=rng
        )

    per_query_epsilon = (epsilon / 2.0) / num_queries
    true_answers = shared_evaluator(workload).answers_on_instance(instance)
    noise = sample_laplace(sensitivity_bound, per_query_epsilon, size=num_queries, rng=rng)
    return IndependentLaplaceResult(
        answers=true_answers + noise,
        sensitivity_bound=float(sensitivity_bound),
        per_query_epsilon=per_query_epsilon,
    )
