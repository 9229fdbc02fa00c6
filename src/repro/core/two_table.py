"""Algorithm 1: ``TwoTable`` — join-as-one release for two-table joins.

The local sensitivity of the two-table counting query is the maximum join
value degree ``Δ = max_b max(deg_1(b), deg_2(b))``; the function ``LS_count``
itself has global sensitivity one, so ``Δ`` can be released (and only ever
*over*-estimated) with sensitivity-1 truncated Laplace noise.  The noisy bound
``Δ̃`` then parameterises the PMW run on the joined data.
"""

from __future__ import annotations

import numpy as np

from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.core.result import ReleaseResult
from repro.core.synthetic import SyntheticDataset
from repro.mechanisms.rng import resolve_rng
from repro.mechanisms.spec import PrivacySpec
from repro.mechanisms.truncated_laplace import truncated_laplace_mechanism
from repro.queries.evaluation import WorkloadEvaluator, shared_evaluator
from repro.queries.workload import Workload
from repro.relational.instance import Instance
from repro.sensitivity.local import local_sensitivity


def two_table_release(
    instance: Instance,
    workload: Workload,
    epsilon: float,
    delta: float,
    *,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    evaluator: WorkloadEvaluator | None = None,
    pmw_config: PMWConfig | None = None,
) -> ReleaseResult:
    """Release synthetic data for a two-table join (Algorithm 1).

    The overall guarantee is (ε, δ)-DP: (ε/2, δ/2) for the noisy sensitivity
    bound Δ̃ and (ε/2, δ/2) for the PMW run (Lemma 3.2).  Without an
    explicit ``evaluator`` the workload's shared evaluator answers it.
    """
    query = instance.query
    if query.num_relations != 2:
        raise ValueError(
            f"two_table_release expects exactly two relations, got {query.num_relations}"
        )
    workload.require_compatible(query)
    generator = resolve_rng(rng, seed)
    if evaluator is None:
        evaluator = shared_evaluator(workload)

    # Line 1: Δ̃ ← Δ + TLap — the global sensitivity of LS_count is one for
    # two-table joins, so sensitivity-1 noise suffices.
    delta_true = local_sensitivity(instance)
    delta_tilde = truncated_laplace_mechanism(
        float(delta_true), 1.0, epsilon / 2.0, delta / 2.0, rng=generator
    )
    delta_tilde = max(delta_tilde, 1.0)

    # Line 2: PMW with the remaining half of the budget.
    pmw = private_multiplicative_weights(
        instance,
        workload,
        epsilon / 2.0,
        delta / 2.0,
        delta_tilde,
        rng=generator,
        evaluator=evaluator,
        config=pmw_config,
    )
    privacy = PrivacySpec(epsilon, delta)
    synthetic = SyntheticDataset(
        join_query=workload.join_query,
        histogram=pmw.histogram,
        privacy=privacy,
        metadata={"algorithm": "two_table", "delta_tilde": delta_tilde},
    )
    return ReleaseResult(
        synthetic=synthetic,
        privacy=privacy,
        algorithm="two_table",
        diagnostics={
            "local_sensitivity": delta_true,
            "delta_tilde": delta_tilde,
            "noisy_total": pmw.noisy_total,
            "iterations": pmw.iterations,
            "epsilon_per_round": pmw.epsilon_per_round,
        },
    )
