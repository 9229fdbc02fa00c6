"""Evaluator parity on randomized workloads and the shared-evaluator cache.

The evaluator's answers must agree with the per-query references on
randomized mixed workloads: histogram answers within 1e-9 of the dense
reference and instance answers bitwise (the supports are checked against
the dense query vectors in ``test_factored_evaluation``).  The
shared-evaluator cache must hand out one evaluator per workload and die
with its workload (``test_evaluator_modes.TestSharedEvaluator`` checks that
distinct workloads get distinct evaluators).
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.queries.evaluation import WorkloadEvaluator, shared_evaluator
from repro.queries.workload import Workload
from repro.relational.hypergraph import path3_query, two_table_query
from repro.relational.instance import Instance


def _random_workload(seed: int) -> Workload:
    """A randomized mixed workload: marginals + signs + predicates."""
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        query = two_table_query(5, 4, 6)
    else:
        query = path3_query(3, 4, 3, 2)
    attribute = query.attribute_names[int(rng.integers(len(query.attribute_names)))]
    workload = Workload.attribute_marginals(query, attribute)
    workload = workload.extended(
        Workload.random_sign(
            query, int(rng.integers(2, 5)), seed=seed + 1, include_counting=False
        ).queries
    )
    return workload.extended(
        Workload.random_predicates(
            query, 2, selectivity=0.4, seed=seed + 2, include_counting=False
        ).queries
    )


def _random_instance(workload: Workload, rng: np.random.Generator) -> Instance:
    query = workload.join_query
    tuples = {}
    for schema in query.relations:
        tuples[schema.name] = [
            tuple(int(rng.integers(size)) for size in schema.shape) for _ in range(30)
        ]
    return Instance.from_tuple_lists(query, tuples)


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestBackendParity:
    """Property-style parity of the evaluator with the per-query references."""

    def test_answers_agree(self, seed):
        workload = _random_workload(seed)
        rng = np.random.default_rng(seed + 10)
        instance = _random_instance(workload, rng)
        evaluator = WorkloadEvaluator(workload)
        assert np.array_equal(
            evaluator.answers_on_instance(instance),
            np.array([product.evaluate(instance) for product in workload]),
        )
        histograms = [
            rng.random(workload.join_query.shape) * 10.0,
            np.zeros(workload.join_query.shape),
        ]
        for histogram in histograms:
            reference = np.array([product.evaluate_on_histogram(histogram) for product in workload])
            scale = max(1.0, float(np.abs(reference).max()))
            answers = evaluator.answers_on_histogram(histogram)
            assert np.max(np.abs(answers - reference)) <= 1e-9 * scale


class TestSharedEvaluatorCache:
    def test_same_settings_share_one_evaluator(self):
        workload = _random_workload(1)
        assert shared_evaluator(workload) is shared_evaluator(workload)

    def test_entries_evicted_when_workload_collected(self):
        workload = _random_workload(2)
        evaluator = shared_evaluator(workload)
        evaluator.answers_on_histogram(np.zeros(workload.join_query.shape))
        evaluator_ref = weakref.ref(evaluator)
        workload_ref = weakref.ref(workload)
        del evaluator, workload
        gc.collect()
        assert workload_ref() is None, "workload kept alive by the evaluator cache"
        assert evaluator_ref() is None, "cached evaluator outlived its workload"
