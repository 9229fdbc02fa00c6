"""Parity of the workload evaluator with the per-query references, and its sharing.

On randomized mixed workloads and on one fixed workload, instance answers are
bitwise ``ProductQuery.evaluate`` and histogram answers agree with the dense
reference to 1e-9 (the supports are checked against the dense query vectors
in ``test_factored_evaluation``); support sizes are exact.  A workload has
one shared evaluator, distinct from any other workload's, that dies with it.
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
from tests.relational.test_oracles import join_result


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


def _fixed_workload(query) -> Workload:
    # Marginals (sparse rows) plus random signs (dense rows) plus counting.
    return Workload.attribute_marginals(query, "B").extended(
        Workload.random_sign(query, 5, seed=3, include_counting=False).queries
    )


def _fixed_instance(query, rng: np.random.Generator) -> Instance:
    tuples_r1 = [(int(rng.integers(6)), int(rng.integers(5))) for _ in range(40)]
    tuples_r2 = [(int(rng.integers(5)), int(rng.integers(4))) for _ in range(40)]
    return Instance.from_tuple_lists(query, {"R1": tuples_r1, "R2": tuples_r2})


@pytest.fixture
def query():
    return two_table_query(6, 5, 4)


@pytest.fixture
def workload(query):
    return _fixed_workload(query)


@pytest.mark.parametrize("case", ["random-0", "random-1", "random-2", "fixed"])
def test_answers_match_the_references(case):
    if case == "fixed":
        query = two_table_query(6, 5, 4)
        workload = _fixed_workload(query)
        rng = np.random.default_rng(12345)
        instance = _fixed_instance(query, rng)
    else:
        seed = int(case.removeprefix("random-"))
        workload = _random_workload(seed)
        rng = np.random.default_rng(seed + 10)
        instance = _random_instance(workload, rng)
    evaluator = WorkloadEvaluator(workload)
    assert np.array_equal(
        evaluator.answers_on_instance(instance),
        np.array([product.evaluate(instance) for product in workload]),
    )
    histograms = [
        join_result(instance).astype(float),
        rng.random(workload.join_query.shape) * 10.0,
        np.zeros(workload.join_query.shape),
    ]
    for histogram in histograms:
        reference = np.array([product.evaluate_on_histogram(histogram) for product in workload])
        scale = max(1.0, float(np.abs(reference).max()))
        answers = evaluator.answers_on_histogram(histogram)
        assert np.max(np.abs(answers - reference)) <= 1e-9 * scale


def test_support_size_matches_nnz(workload):
    evaluator = WorkloadEvaluator(workload)
    for index in range(len(workload)):
        nnz = int(np.count_nonzero(workload[index].joint_values()))
        assert evaluator._support_size(index) == nnz
    assert evaluator.total_support_size() == sum(
        evaluator._support_size(index) for index in range(len(workload))
    )


def test_marginal_supports_are_small(query):
    workload = Workload.attribute_marginals(query, "B", include_counting=False)
    evaluator = WorkloadEvaluator(workload)
    # Each B-marginal touches exactly |dom(A)|·|dom(C)| of the |D| cells.
    domain = query.joint_domain_size
    expected = domain // query.attribute("B").domain.size
    for index in range(len(workload)):
        assert evaluator._support_size(index) == expected


class TestSharedEvaluator:
    def test_one_workload_shares_one_evaluator(self, workload):
        assert shared_evaluator(workload) is shared_evaluator(workload)

    def test_distinct_workloads_get_distinct_evaluators(self, query):
        first = Workload.counting(query)
        second = Workload.counting(query)
        assert shared_evaluator(first) is not shared_evaluator(second)

    def test_evaluator_dies_with_its_workload(self):
        workload = _random_workload(2)
        evaluator = shared_evaluator(workload)
        evaluator.answers_on_histogram(np.zeros(workload.join_query.shape))
        evaluator_ref = weakref.ref(evaluator)
        workload_ref = weakref.ref(workload)
        del evaluator, workload
        gc.collect()
        assert workload_ref() is None, "workload kept alive by the evaluator cache"
        assert evaluator_ref() is None, "cached evaluator outlived its workload"
