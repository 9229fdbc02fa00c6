"""The benchmark workloads and the inputs each one builds from its seed.

Everything here runs before any clock starts.  A seed fixes the instance;
the same seed always gives the same inputs.  PMW rounds are fixed through
``PMWConfig`` and the join-value degree profiles by the parameters, so the
amount of work a release does does not depend on the seed: the seed moves
where the tuples sit.  The query workloads and the release seeds are the
same for every run, so ``linf_error_rel`` compares one set of queries and
privacy-noise draws across instances instead of sampling them anew in each
run.

Why these three workloads:

``two_table_marginals``
    Algorithm 1 at the E15 scale.  Evaluator compile is all of its set-up
    and per-round scoring most of its release: the layers a faster
    evaluator or incremental PMW scores rewrite.
``chain_residual``
    Algorithm 3 on a four-relation chain, where the residual-sensitivity
    enumeration is almost the whole release and the evaluator is small.  It
    is the workload that exercises ``sensitivity.residual`` and the one on
    which a change to the queries layer must read as no change.
``uniformize_zipf``
    Algorithm 4 over dense +-1 queries: supports cover the whole domain and
    one evaluator serves about eight bucket-level PMW runs, so a change that
    speeds up sparse marginals but costs dense queries or per-run overhead
    shows here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import repro

#: The release seeds of every run.  The error metric is the median over
#: them, so it does not hang on one draw of the privacy noise.
RELEASE_SEEDS = (1, 2, 3)
#: Seed of the uniformize workload's +-1 queries.
QUERY_SEED = 0


@dataclass(frozen=True)
class Inputs:
    """Everything one run of a workload needs, built from its seed."""

    name: str
    instance: repro.Instance
    make_workload: Callable[[], repro.Workload]
    epsilon: float
    delta: float
    method: str
    pmw_config: repro.PMWConfig


def zipf_degrees(total: int, num_values: int, exponent: float) -> np.ndarray:
    """The expected-count Zipf profile: ``round(total * v^-s / H)`` for rank ``v``."""
    weights = np.arange(1, num_values + 1, dtype=float) ** -exponent
    return np.rint(total * weights / weights.sum()).astype(np.int64)


def skewed_two_table(
    rng: np.random.Generator,
    query: repro.JoinQuery,
    tuples_per_relation: int,
    exponent: float,
) -> repro.Instance:
    """``R1(A, B) ⋈ R2(B, C)`` whose join-value degrees follow a Zipf profile.

    In both relations join value ``b`` has the ``b``-th largest degree of
    one fixed profile, so the join size, the local sensitivity and the
    uniformized buckets are the same for every seed.  The seed scatters each
    join value's tuples uniformly over A (in R1) and over C (in R2).
    """
    size_a, size_b, size_c = query.shape
    degrees = zipf_degrees(tuples_per_relation, size_b, exponent)
    r1 = rng.multinomial(degrees, np.full(size_a, 1.0 / size_a)).T
    r2 = rng.multinomial(degrees, np.full(size_c, 1.0 / size_c))
    return repro.Instance.from_frequencies(query, {"R1": r1, "R2": r2})


def near_uniform_chain(
    rng: np.random.Generator, query: repro.JoinQuery, base: int, jitter: int
) -> repro.Instance:
    """A chain instance whose every tuple has multiplicity ``base + U{0..jitter}``."""
    frequencies = {
        schema.name: base + rng.integers(0, jitter + 1, size=schema.shape)
        for schema in query.relations
    }
    return repro.Instance.from_frequencies(query, frequencies)


def one_way_marginals(query: repro.JoinQuery) -> repro.Workload:
    """The counting query plus one marginal per value of every attribute."""
    first, *rest = query.attribute_names
    workload = repro.Workload.attribute_marginals(query, first)
    for name in rest:
        workload = workload.extended(
            repro.Workload.attribute_marginals(query, name, include_counting=False).queries
        )
    return workload


def _two_table_marginals(data_rng):
    query = repro.two_table_query(128, 64, 128)
    instance = skewed_two_table(data_rng, query, 100_000, 1.2)
    return dict(
        instance=instance,
        make_workload=lambda: one_way_marginals(query),
        epsilon=1.0,
        delta=1e-6,
        method="auto",
        pmw_config=repro.PMWConfig(num_iterations=200),
    )


def _chain_residual(data_rng):
    query = repro.chain_query([8] * 5)
    instance = near_uniform_chain(data_rng, query, 100, 20)
    return dict(
        instance=instance,
        make_workload=lambda: one_way_marginals(query),
        epsilon=0.2,
        delta=1e-6,
        method="auto",
        pmw_config=repro.PMWConfig(num_iterations=30),
    )


def _uniformize_zipf(data_rng):
    query = repro.two_table_query(64, 64, 32)
    instance = skewed_two_table(data_rng, query, 36_000, 1.2)
    return dict(
        instance=instance,
        make_workload=lambda: repro.Workload.random_sign(query, 100, seed=QUERY_SEED),
        epsilon=1.0,
        delta=1e-6,
        method="uniformize_two_table",
        pmw_config=repro.PMWConfig(num_iterations=30),
    )


_FACTORIES = {
    "two_table_marginals": _two_table_marginals,
    "chain_residual": _chain_residual,
    "uniformize_zipf": _uniformize_zipf,
}

WORKLOADS = tuple(_FACTORIES)


def build_inputs(name: str, seed: int) -> Inputs:
    """The inputs of workload ``name`` for ``seed``; raises ``KeyError`` on an unknown name."""
    return Inputs(name=name, **_FACTORIES[name](np.random.default_rng(seed)))
