"""The "natural but flawed" join-as-one variants of Section 3.1.

Both variants are **not differentially private**; they exist so experiment
E1 can reproduce the distinguishing attack of Example 3.1 against them
and verify that Algorithm 1 does not exhibit the same leak.

* :func:`flawed_exact_count_release` — run the single-table PMW on the join
  result directly.  The released dataset's total mass tracks ``count(I)``
  exactly, and neighbouring instances can have join sizes ``n`` versus ``0``
  (Figure 1), so an adversary distinguishes them from the total mass alone.
* :func:`flawed_padded_release` — additionally pad the release with ``η``
  uniform dummy tuples, ``η`` drawn from a truncated Laplace calibrated to a
  noisy sensitivity bound.  The total mass is now protected, but Example 3.1
  shows the *localisation* of the mass still leaks: under ``I`` nearly all
  mass sits inside the small region ``D'``, while under the neighbour ``I'``
  the dummy mass almost never lands there.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.core.result import ReleaseResult
from repro.core.synthetic import SyntheticDataset
from repro.core.two_table import noisy_local_sensitivity
from repro.mechanisms.rng import require_generator
from repro.mechanisms.spec import PrivacySpec
from repro.mechanisms.truncated_laplace import sample_truncated_laplace
from repro.queries.workload import Workload
from repro.relational.instance import Instance
from repro.relational.join import join_size

_WARNING = "NOT differentially private"


def flawed_exact_count_release(
    instance: Instance,
    workload: Workload,
    epsilon: float,
    delta: float,
    *,
    rng: np.random.Generator,
    pmw_config: PMWConfig | None = None,
) -> ReleaseResult:
    """Flawed variant 1: PMW on the join with the *exact* join size (NOT DP)."""
    require_generator(rng)
    config = replace(pmw_config or PMWConfig(), force_total=float(join_size(instance)))
    pmw = private_multiplicative_weights(
        instance, workload, epsilon, delta, 1.0, rng=rng, config=config
    )
    return ReleaseResult.from_pmw(
        "flawed_exact_count",
        workload,
        pmw,
        PrivacySpec(epsilon, delta),
        diagnostics={"warning": _WARNING},
    )


def flawed_padded_release(
    instance: Instance,
    workload: Workload,
    epsilon: float,
    delta: float,
    *,
    rng: np.random.Generator,
    pmw_config: PMWConfig | None = None,
) -> ReleaseResult:
    """Flawed variant 2: exact-count PMW plus uniform dummy padding (NOT DP).

    Steps (1)–(4) of the second flawed idea in Section 3.1: the padding count
    ``η`` is drawn from a truncated Laplace calibrated to the noisy local
    sensitivity, and the padded mass is spread uniformly over the joint
    domain (the continuous analogue of sampling η random records).
    """
    require_generator(rng)
    query = workload.join_query

    base = flawed_exact_count_release(
        instance, workload, epsilon / 2.0, delta / 2.0, rng=rng, pmw_config=pmw_config
    )

    delta_tilde = noisy_local_sensitivity(instance, epsilon / 4.0, delta / 4.0, rng=rng)
    eta = sample_truncated_laplace(delta_tilde, epsilon / 4.0, delta / 4.0, rng=rng)
    padding = np.full(query.shape, eta / query.joint_domain_size, dtype=float)

    return ReleaseResult(
        synthetic=SyntheticDataset(join_query=query, histogram=base.synthetic.histogram + padding),
        privacy=PrivacySpec(epsilon, delta),
        algorithm="flawed_padded",
        diagnostics={
            "warning": _WARNING,
            "eta": eta,
            "delta_tilde": delta_tilde,
            "base_total": base.synthetic.total_mass(),
        },
    )
