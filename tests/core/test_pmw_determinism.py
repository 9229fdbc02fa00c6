"""PMW determinism across its two scoring paths.

PMW's selection path (exponential mechanism + Laplace measurement) consumes
randomness from a seeded generator, so with a fixed seed the *selected query
sequence* and the *noisy total* must be bitwise identical whether the loop
carries its answers across rounds from the changes its support updates
report (forced here by patching the matrix budget to 0) or evaluates the
workload in full every round.  The released histograms agree to 1e-9
relative rather than bitwise: carried answers round differently from full
evaluations.  The pair is checked on the two-table join and on a 3-relation
chain and a star.
"""

import numpy as np
import pytest

from repro.core.pmw import private_multiplicative_weights
from repro.queries import evaluation
from repro.queries.evaluation import shared_evaluator
from repro.queries.workload import Workload
from repro.relational.hypergraph import chain_query, star_query, two_table_query
from repro.relational.instance import Instance


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


def _run_pmw(instance, workload, seed: int, monkeypatch):
    """The PMW result and the number of full workload evaluations it made."""
    evaluator = shared_evaluator(workload)
    calls = []
    open_session = evaluator.histogram_session

    def counted_session(*args, **kwargs):
        session = open_session(*args, **kwargs)
        answers = session.answers
        monkeypatch.setattr(session, "answers", lambda: calls.append(1) or answers())
        return session

    monkeypatch.setattr(evaluator, "histogram_session", counted_session)
    result = private_multiplicative_weights(
        instance, workload, 1.0, 1e-5, 2.0, rng=np.random.default_rng(seed)
    )
    return result, len(calls)


def _setup_on(query, seed: int):
    """Random tuples in every relation; marginals on the second attribute plus ±1 queries."""
    rng = np.random.default_rng(seed)
    tuples = {
        schema.name: [tuple(int(rng.integers(size)) for size in schema.shape) for _ in range(80)]
        for schema in query.relations
    }
    instance = Instance.from_tuple_lists(query, tuples)
    workload = Workload.attribute_marginals(query, query.attribute_names[1]).extended(
        Workload.random_sign(query, 8, seed=seed + 1, include_counting=False).queries
    )
    return instance, workload


SETUPS = {
    "two_table": _setup,
    "chain": lambda seed: _setup_on(chain_query([6, 4, 5, 3]), seed),
    "star": lambda seed: _setup_on(star_query(4, [5, 3, 4]), seed),
}


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("join", SETUPS)
def test_pmw_incremental_matches_full(join, seed, monkeypatch):
    instance, workload = SETUPS[join](seed)
    full, evaluations = _run_pmw(instance, workload, seed, monkeypatch)
    assert evaluations == full.iterations
    assert full.selected_queries  # the run actually iterated
    monkeypatch.setattr(evaluation, "_MATRIX_CELL_BUDGET", 0)
    instance, workload = SETUPS[join](seed)
    incremental, evaluations = _run_pmw(instance, workload, seed, monkeypatch)
    assert evaluations < incremental.iterations  # the carried path ran
    assert incremental.selected_queries == full.selected_queries
    assert incremental.noisy_total == full.noisy_total
    scale = max(1.0, float(np.abs(full.histogram).max()))
    assert np.max(np.abs(incremental.histogram - full.histogram)) <= 1e-9 * scale
