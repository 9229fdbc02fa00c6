"""Cross-backend PMW determinism.

PMW's selection path (exponential mechanism + Laplace measurement) consumes
randomness from a seeded generator, so with a fixed seed the *selected query
sequence* and the *noisy total* must be bitwise identical no matter which of
the seven evaluation backends answers the workload — dense, sparse, streaming,
prefetch, sharded (csr and chunked), domain-partitioned at any worker count,
or the vectorised batch kernels under either engine.  The
released histograms agree to 1e-9 relative rather than bitwise, for two
reasons.  Multi-shard and multi-slice backends reassociate floating-point
partial sums, which is the one deviation the domain-partitioning design
explicitly trades for its per-slice memory bound.  And the backends with a
column view (``sparse``, ``vector``, row-sharded ``sharded``) carry their
answers across rounds from the change each support update reports, while
``dense``, ``streaming``, ``prefetch``, chunked ``sharded`` and ``domain``
evaluate the workload in full every round; the contract covers those
incremental-versus-full pairs too, such as ``sparse``/``dense``.
"""

import numpy as np
import pytest

from repro.core.pmw import private_multiplicative_weights
from repro.queries.evaluation import WorkloadEvaluator
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query
from repro.relational.instance import Instance

#: (backend name, evaluator kwargs) — the full matrix of evaluation paths.
#: The sharded/domain entries with ``sparse_cell_budget=1`` force the
#: chunked representation (CSR no longer fits the budget), so both
#: representations of both multi-process strategies are covered.  The
#: ``vector`` entries cover both kernel engines: the default resolves to
#: JAX when importable and NumPy otherwise, so with JAX installed the pair
#: exercises both, and without it the NumPy engine is pinned explicitly.
BACKEND_MATRIX = [
    ("dense", {}),
    ("sparse", {}),
    ("streaming", {"chunk_size": 32}),
    ("prefetch", {"chunk_size": 32, "workers": 2}),
    ("sharded", {"workers": 2}),
    ("sharded", {"workers": 3}),
    ("sharded", {"workers": 2, "sparse_cell_budget": 1, "chunk_size": 32}),
    ("domain", {"workers": 2}),
    ("domain", {"workers": 3}),
    ("domain", {"workers": 2, "sparse_cell_budget": 1, "chunk_size": 32}),
    ("vector", {}),
    ("vector", {"engine": "numpy"}),
]


def _setup(seed: int):
    query = two_table_query(12, 5, 6)
    rng = np.random.default_rng(seed)
    r1 = [(int(rng.integers(12)), int(rng.integers(5))) for _ in range(90)]
    r2 = [(int(rng.integers(5)), int(rng.integers(6))) for _ in range(110)]
    instance = Instance.from_tuple_lists(query, {"R1": r1, "R2": r2})
    workload = Workload.attribute_marginals(query, "B").extended(
        Workload.random_sign(query, 8, seed=seed + 1, include_counting=False).queries
    )
    return instance, workload


def _run_pmw(instance, workload, backend: str, kwargs: dict, seed: int):
    evaluator = WorkloadEvaluator(workload, mode=backend, **kwargs)
    try:
        return private_multiplicative_weights(
            instance, workload, 1.0, 1e-5, 2.0, seed=seed, evaluator=evaluator
        )
    finally:
        evaluator.close()


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize(
    "backend, kwargs",
    BACKEND_MATRIX,
    ids=[
        f"{name}-{'-'.join(f'{k}{v}' for k, v in sorted(kw.items())) or 'default'}"
        for name, kw in BACKEND_MATRIX
    ],
)
def test_pmw_deterministic_across_backends(backend, kwargs, seed):
    instance, workload = _setup(seed)
    reference = _run_pmw(instance, workload, "sparse", {}, seed)
    assert reference.selected_queries  # the run actually iterated
    result = _run_pmw(instance, workload, backend, kwargs, seed)
    assert result.selected_queries == reference.selected_queries
    assert result.noisy_total == reference.noisy_total
    scale = max(1.0, float(np.abs(reference.histogram).max()))
    assert np.max(np.abs(result.histogram - reference.histogram)) <= 1e-9 * scale
