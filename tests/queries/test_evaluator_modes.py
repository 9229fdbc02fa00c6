"""Parity of the workload evaluator with the per-query references.

Instance answers are bitwise ``ProductQuery.evaluate``, histogram answers
agree with the dense reference to 1e-9, and support sizes are exact.
"""

import numpy as np
import pytest

from repro.queries.backends import EvaluatorContext
from repro.queries.evaluation import WorkloadEvaluator, shared_evaluator
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query
from repro.relational.instance import Instance
from repro.relational.join import join_result


@pytest.fixture
def query():
    return two_table_query(6, 5, 4)


@pytest.fixture
def instance(query, rng):
    tuples_r1 = [(int(rng.integers(6)), int(rng.integers(5))) for _ in range(40)]
    tuples_r2 = [(int(rng.integers(5)), int(rng.integers(4))) for _ in range(40)]
    return Instance.from_tuple_lists(query, {"R1": tuples_r1, "R2": tuples_r2})


@pytest.fixture
def workload(query):
    # Marginals (sparse rows) plus random signs (dense rows) plus counting.
    return Workload.attribute_marginals(query, "B").extended(
        Workload.random_sign(query, 5, seed=3, include_counting=False).queries
    )


class TestModeParity:
    def test_instance_answers_identical(self, workload, instance):
        answers = WorkloadEvaluator(workload).answers_on_instance(instance)
        reference = np.array([product.evaluate(instance) for product in workload])
        assert np.array_equal(answers, reference)

    def test_histogram_answers_match_to_1e9(self, workload, instance, rng):
        evaluator = WorkloadEvaluator(workload)
        histograms = [
            join_result(instance).astype(float),
            rng.random(workload.join_query.shape) * 10.0,
        ]
        for histogram in histograms:
            reference = np.array([product.evaluate_on_histogram(histogram) for product in workload])
            scale = max(1.0, float(np.abs(reference).max()))
            answers = evaluator.answers_on_histogram(histogram)
            assert np.max(np.abs(answers - reference)) <= 1e-9 * scale

    def test_support_size_matches_nnz(self, workload):
        evaluator = WorkloadEvaluator(workload)
        context = EvaluatorContext(workload)
        for index in range(len(workload)):
            nnz = int(np.count_nonzero(workload[index].joint_values()))
            assert context.support_size(index) == nnz
        assert evaluator.total_support_size() == sum(
            context.support_size(index) for index in range(len(workload))
        )

    def test_marginal_supports_are_small(self, query):
        workload = Workload.attribute_marginals(query, "B", include_counting=False)
        context = EvaluatorContext(workload)
        # Each B-marginal touches exactly |dom(A)|·|dom(C)| of the |D| cells.
        domain = query.joint_domain_size
        expected = domain // query.attribute("B").domain.size
        for index in range(len(workload)):
            assert context.support_size(index) == expected


class TestSharedEvaluator:
    def test_same_workload_shares_one_evaluator(self, workload):
        assert shared_evaluator(workload) is shared_evaluator(workload)

    def test_distinct_workloads_get_distinct_evaluators(self, query):
        first = Workload.counting(query)
        second = Workload.counting(query)
        assert shared_evaluator(first) is not shared_evaluator(second)
