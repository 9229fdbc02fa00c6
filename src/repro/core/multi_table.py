"""Algorithm 3: ``MultiTable`` — join-as-one release for general joins.

For more than two tables the local sensitivity ``LS_count`` itself has large
global sensitivity, so Algorithm 1's additive trick no longer works.  Instead,
``ln RS^β_count(I)`` has global sensitivity at most ``β`` (residual
sensitivity is a β-smooth upper bound on local sensitivity), so the algorithm
releases the residual sensitivity with *multiplicative* truncated Laplace
noise and hands the result to PMW as the sensitivity bound.  ``β = 1/λ`` is
Algorithm 3's line 1; ``RS^β(I)`` itself never leaves
:func:`noisy_residual_sensitivity`: the release records ``β`` and ``Δ̃``.
"""

from __future__ import annotations

from math import exp

import numpy as np

from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.core.result import ReleaseResult
from repro.mechanisms.rng import require_generator
from repro.mechanisms.spec import PrivacySpec
from repro.mechanisms.truncated_laplace import default_lambda, sample_truncated_laplace
from repro.queries.workload import Workload
from repro.relational.instance import Instance
from repro.sensitivity.residual import residual_sensitivity


def default_beta(epsilon: float, delta: float) -> float:
    """The paper's choice ``β = 1/λ`` with ``λ = (1/ε)·log(1/δ)``."""
    return 1.0 / max(default_lambda(epsilon, delta), 1e-9)


def noisy_residual_sensitivity(
    instance: Instance,
    epsilon: float,
    delta: float,
    beta: float,
    *,
    rng: np.random.Generator,
) -> float:
    """Algorithm 3's line 2, spending (ε, δ): ``Δ̃ = RS·e^{TLap}``.

    ``RS`` is the residual sensitivity ``RS^β(I)`` floored at one.
    ``ln RS^β`` has global sensitivity β, so the multiplicative noise is a
    β-sensitivity truncated Laplace in log space.
    """
    rs_value = max(residual_sensitivity(instance, beta), 1.0)
    log_noise = sample_truncated_laplace(beta, epsilon, delta, rng=rng)
    return rs_value * exp(float(log_noise))


def multi_table_release(
    instance: Instance,
    workload: Workload,
    epsilon: float,
    delta: float,
    *,
    rng: np.random.Generator,
    pmw_config: PMWConfig | None = None,
) -> ReleaseResult:
    """Release synthetic data for a general multi-way join (Algorithm 3).

    The overall guarantee is (ε, δ)-DP: (ε/2, δ/2) for the noisy residual
    sensitivity and (ε/2, δ/2) for the PMW run (Lemma 3.7).
    """
    require_generator(rng)
    privacy = PrivacySpec(epsilon, delta)  # refuses a bad budget before any draw
    query = instance.query
    workload.require_compatible(query)

    # Line 1: β ← 1/λ.
    beta = default_beta(epsilon, delta)

    # Line 2: Δ̃ ← RS^β(I) · e^{TLap}.
    delta_tilde = noisy_residual_sensitivity(instance, epsilon / 2.0, delta / 2.0, beta, rng=rng)

    # Line 3: PMW with the remaining half of the budget.
    pmw = private_multiplicative_weights(
        instance,
        workload,
        epsilon / 2.0,
        delta / 2.0,
        delta_tilde,
        rng=rng,
        config=pmw_config,
    )
    return ReleaseResult.from_pmw(
        "multi_table",
        workload,
        pmw,
        privacy,
        diagnostics={"beta": beta, "delta_tilde": delta_tilde},
    )
