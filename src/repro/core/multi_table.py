"""Algorithm 3: ``MultiTable`` — join-as-one release for general joins.

For more than two tables the local sensitivity ``LS_count`` itself has large
global sensitivity, so Algorithm 1's additive trick no longer works.  Instead,
``ln RS^β_count(I)`` has global sensitivity at most ``β`` (residual
sensitivity is a β-smooth upper bound on local sensitivity), so the algorithm
releases the residual sensitivity with *multiplicative* truncated Laplace
noise and hands the result to PMW as the sensitivity bound.
"""

from __future__ import annotations

from math import exp, log

import numpy as np

from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.core.result import ReleaseResult
from repro.core.synthetic import SyntheticDataset
from repro.mechanisms.rng import resolve_rng
from repro.mechanisms.spec import PrivacySpec
from repro.mechanisms.truncated_laplace import sample_truncated_laplace, truncation_radius
from repro.queries.evaluation import WorkloadEvaluator, shared_evaluator
from repro.queries.workload import Workload
from repro.relational.instance import Instance
from repro.sensitivity.residual import residual_sensitivity


def default_beta(epsilon: float, delta: float) -> float:
    """The paper's choice ``β = 1/λ`` with ``λ = (1/ε)·log(1/δ)``."""
    lam = log(1.0 / delta) / epsilon
    return 1.0 / max(lam, 1e-9)


def multi_table_release(
    instance: Instance,
    workload: Workload,
    epsilon: float,
    delta: float,
    *,
    beta: float | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    evaluator: WorkloadEvaluator | None = None,
    pmw_config: PMWConfig | None = None,
) -> ReleaseResult:
    """Release synthetic data for a general multi-way join (Algorithm 3).

    The overall guarantee is (ε, δ)-DP: (ε/2, δ/2) for the noisy residual
    sensitivity and (ε/2, δ/2) for the PMW run (Lemma 3.7).  Without an
    explicit ``evaluator`` the workload's shared evaluator answers it.
    """
    query = instance.query
    workload.require_compatible(query)
    generator = resolve_rng(rng, seed)
    if evaluator is None:
        evaluator = shared_evaluator(workload)

    # Line 1: β ← 1/λ.
    if beta is None:
        beta = default_beta(epsilon, delta)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")

    # Line 2: Δ̃ ← RS^β(I) · e^{TLap}; ln(RS^β) has global sensitivity β, so
    # the multiplicative noise is a β-sensitivity truncated Laplace in log-space.
    rs_value = residual_sensitivity(instance, beta)
    rs_value = max(rs_value, 1.0)
    radius = truncation_radius(epsilon / 2.0, delta / 2.0, beta)
    log_noise = sample_truncated_laplace(2.0 * beta / epsilon, radius, rng=generator)
    delta_tilde = rs_value * exp(float(log_noise))

    # Line 3: PMW with the remaining half of the budget.
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
        metadata={"algorithm": "multi_table", "delta_tilde": delta_tilde},
    )
    return ReleaseResult(
        synthetic=synthetic,
        privacy=privacy,
        algorithm="multi_table",
        diagnostics={
            "beta": beta,
            "residual_sensitivity": rs_value,
            "delta_tilde": delta_tilde,
            "noisy_total": pmw.noisy_total,
            "iterations": pmw.iterations,
            "epsilon_per_round": pmw.epsilon_per_round,
        },
    )
