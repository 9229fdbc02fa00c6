"""The public one-call entry point for synthetic data release.

``release_synthetic_data`` dispatches to the appropriate algorithm of the
paper based on the join query shape (or an explicit ``method``):

* one relation        → the single-table PMW of Theorem 1.3;
* two relations       → Algorithm 1 (``TwoTable``), or its uniformized variant;
* hierarchical joins  → Algorithm 3 (``MultiTable``), or Algorithm 4 with the
  hierarchical partition;
* general joins       → Algorithm 3 (``MultiTable``).

Before it dispatches, it refuses with a :class:`ReleaseMemoryError` a
release whose ``|D|``-length histogram arrays cannot fit the host's memory.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.multi_table import multi_table_release
from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.core.result import ReleaseResult
from repro.core.two_table import two_table_release
from repro.core.uniformize import uniformize_release
from repro.mechanisms.rng import resolve_rng
from repro.mechanisms.spec import PrivacySpec
from repro.queries.evaluation import _BLOCK_CELLS
from repro.queries.workload import Workload
from repro.relational.instance import Instance

_METHODS = (
    "auto",
    "single_table",
    "two_table",
    "multi_table",
    "uniformize",
    "uniformize_two_table",
    "uniformize_hierarchical",
)


class ReleaseMemoryError(MemoryError):
    """A release refused before it allocates: its histograms exceed the host's memory."""


def _memory_limit() -> int | None:
    """The smaller of physical memory and ``RLIMIT_AS``; ``None`` where neither is readable."""
    limits = []
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name here
        physical = -1
    if physical > 0:
        limits.append(physical)
    try:
        import resource
    except ImportError:  # not a Unix host
        pass
    else:
        soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
        if soft != resource.RLIM_INFINITY:
            limits.append(soft)
    return min(limits, default=None)


def _release_bytes(domain_size: int, method: str) -> int:
    """The bytes of ``|D|``-length float64 arrays a release with ``method`` holds at most.

    Every release runs PMW, whose session holds two (its cells, in which it
    also returns the average, and their accumulator); a round adds its
    update factors, at most one more, and a full evaluation its query
    blocks' temporaries, at most ``_BLOCK_CELLS`` more.  Algorithm 4 adds
    the union of its buckets' histograms.
    """
    arrays = 2 + 1 + _BLOCK_CELLS + (1 if method.startswith("uniformize") else 0)
    return arrays * 8 * domain_size


def _require_memory(domain_size: int, method: str) -> None:
    """Raise :class:`ReleaseMemoryError` when a release over ``domain_size`` cells cannot fit."""
    needed = _release_bytes(domain_size, method)
    limit = _memory_limit()
    if limit is not None and needed > limit:
        raise ReleaseMemoryError(
            f"a release over |D| = {domain_size:,} joint-domain cells needs at least "
            f"{needed:,} bytes for its histograms; this host allows {limit:,}"
        )


def _single_table_release(
    instance: Instance,
    workload: Workload,
    epsilon: float,
    delta: float,
    *,
    rng: np.random.Generator,
    pmw_config: PMWConfig | None,
) -> ReleaseResult:
    """Theorem 1.3: the single-table case has sensitivity one."""
    workload.require_compatible(instance.query)
    pmw = private_multiplicative_weights(
        instance, workload, epsilon, delta, 1.0, rng=rng, config=pmw_config
    )
    return ReleaseResult.from_pmw("single_table", workload, pmw, PrivacySpec(epsilon, delta))


def release_synthetic_data(
    instance: Instance,
    workload: Workload,
    epsilon: float,
    delta: float,
    *,
    method: str = "auto",
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    pmw_config: PMWConfig | None = None,
) -> ReleaseResult:
    """Release a DP synthetic dataset for answering the workload's linear queries.

    Parameters
    ----------
    instance:
        The private multi-table database.
    workload:
        The family ``Q`` of linear queries the synthetic data should answer.
    epsilon, delta:
        The target differential-privacy budget.
    method:
        One of ``auto``, ``single_table``, ``two_table``, ``multi_table``,
        ``uniformize`` (auto-picks the partition), ``uniformize_two_table``,
        ``uniformize_hierarchical``.  ``auto`` chooses the plain join-as-one
        algorithm matching the query shape.
    rng, seed:
        Source of randomness (mutually exclusive).
    pmw_config:
        Iteration settings of every PMW run.

    Returns
    -------
    ReleaseResult
        The synthetic dataset, the (possibly blown-up) privacy guarantee, and
        the mechanisms' outputs; its ``error_report`` / ``max_error`` score
        the release against an instance through the workload's shared
        evaluator.

    Raises
    ------
    ReleaseMemoryError
        Before any ``|D|``-length allocation, when the release's histograms
        need more bytes than the host's physical memory or ``RLIMIT_AS``.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
    PrivacySpec(epsilon, delta)  # refuses a bad budget before any draw
    generator = resolve_rng(rng, seed)
    query = instance.query
    _require_memory(query.joint_domain_size, method)

    if method == "auto":
        if query.num_relations == 1:
            method = "single_table"
        elif query.num_relations == 2:
            method = "two_table"
        else:
            method = "multi_table"

    if method == "single_table":
        if query.num_relations != 1:
            raise ValueError("single_table method requires a one-relation query")
        return _single_table_release(
            instance, workload, epsilon, delta, rng=generator, pmw_config=pmw_config
        )
    if method == "two_table":
        return two_table_release(
            instance, workload, epsilon, delta, rng=generator, pmw_config=pmw_config
        )
    if method == "multi_table":
        return multi_table_release(
            instance, workload, epsilon, delta, rng=generator, pmw_config=pmw_config
        )
    partition_method = {
        "uniformize": "auto",
        "uniformize_two_table": "two_table",
        "uniformize_hierarchical": "hierarchical",
    }[method]
    return uniformize_release(
        instance,
        workload,
        epsilon,
        delta,
        method=partition_method,
        rng=generator,
        pmw_config=pmw_config,
    )
