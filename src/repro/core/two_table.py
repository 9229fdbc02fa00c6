"""Algorithm 1: ``TwoTable`` — join-as-one release for two-table joins.

The local sensitivity of the two-table counting query is the maximum join
value degree ``Δ = max_b max(deg_1(b), deg_2(b))``; the function ``LS_count``
itself has global sensitivity one, so ``Δ`` can be released (and only ever
*over*-estimated) with sensitivity-1 truncated Laplace noise.  The noisy bound
``Δ̃`` then parameterises the PMW run on the joined data.  ``Δ`` itself never
leaves :func:`noisy_local_sensitivity`: the release records ``Δ̃`` only.
"""

from __future__ import annotations

import numpy as np

from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.core.result import ReleaseResult
from repro.mechanisms.rng import require_generator
from repro.mechanisms.spec import PrivacySpec
from repro.mechanisms.truncated_laplace import truncated_laplace_mechanism
from repro.queries.workload import Workload
from repro.relational.instance import Instance
from repro.sensitivity.local import local_sensitivity


def noisy_local_sensitivity(
    instance: Instance,
    epsilon: float,
    delta: float,
    *,
    rng: np.random.Generator,
) -> float:
    """Algorithm 1's line 1, spending (ε, δ): ``Δ̃ = max(Δ + TLap, 1)``.

    ``Δ`` is the local sensitivity ``LS_count(I)``.  For two-table joins
    ``LS_count`` has global sensitivity one, so sensitivity-1 truncated
    Laplace noise suffices; ``Δ̃`` is floored at one.
    """
    delta_tilde = truncated_laplace_mechanism(
        float(local_sensitivity(instance)), 1.0, epsilon, delta, rng=rng
    )
    return max(delta_tilde, 1.0)


def two_table_release(
    instance: Instance,
    workload: Workload,
    epsilon: float,
    delta: float,
    *,
    rng: np.random.Generator,
    pmw_config: PMWConfig | None = None,
) -> ReleaseResult:
    """Release synthetic data for a two-table join (Algorithm 1).

    The overall guarantee is (ε, δ)-DP: (ε/2, δ/2) for the noisy sensitivity
    bound Δ̃ and (ε/2, δ/2) for the PMW run (Lemma 3.2).
    """
    require_generator(rng)
    privacy = PrivacySpec(epsilon, delta)  # refuses a bad budget before any draw
    query = instance.query
    if query.num_relations != 2:
        raise ValueError(
            f"two_table_release expects exactly two relations, got {query.num_relations}"
        )
    workload.require_compatible(query)

    # Line 1: Δ̃ ← Δ + TLap.
    delta_tilde = noisy_local_sensitivity(instance, epsilon / 2.0, delta / 2.0, rng=rng)

    # Line 2: PMW with the remaining half of the budget.
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
        "two_table",
        workload,
        pmw,
        privacy,
        diagnostics={"delta_tilde": delta_tilde},
    )
