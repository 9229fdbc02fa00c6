"""Unit tests for workload generators, the evaluator and release scoring."""

import numpy as np
import pytest

from repro.core.result import ReleaseResult
from repro.core.synthetic import SyntheticDataset
from repro.mechanisms.spec import PrivacySpec
from repro.queries.evaluation import ErrorReport, WorkloadEvaluator, shared_evaluator
from repro.queries.linear import TableQuery
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query
from repro.relational.instance import Instance
from repro.relational.join import join_size
from tests.relational.test_oracles import join_result


@pytest.fixture
def query():
    return two_table_query(4, 4, 4)


@pytest.fixture
def instance(query):
    return Instance.from_tuple_lists(
        query,
        {"R1": [(0, 0), (1, 1), (2, 2), (3, 3)], "R2": [(0, 0), (1, 1), (2, 2), (3, 0)]},
    )


class TestWorkloadGenerators:
    def test_counting(self, query):
        workload = Workload.counting(query)
        assert len(workload) == 1
        assert all(table_query.is_all_one() for table_query in workload[0].table_queries)

    def test_random_sign_reproducible(self, query):
        first = Workload.random_sign(query, 5, seed=1)
        second = Workload.random_sign(query, 5, seed=1)
        assert len(first) == 6  # counting query included by default
        for q1, q2 in zip(first, second):
            for t1, t2 in zip(q1.table_queries, q2.table_queries):
                assert np.array_equal(t1.weights, t2.weights)

    def test_random_sign_weights_are_signs(self, query):
        workload = Workload.random_sign(query, 3, seed=2, include_counting=False)
        for product in workload:
            for table_query in product.table_queries:
                assert set(np.unique(table_query.weights)) <= {-1.0, 1.0}

    def test_attribute_marginals(self, query, instance):
        workload = Workload.attribute_marginals(query, "B", include_counting=False)
        assert len(workload) == 4
        answers = shared_evaluator(workload).answers_on_instance(instance)
        # Marginals of the join over B sum to the join size.
        assert answers.sum() == pytest.approx(join_size(instance))

    def test_attribute_marginals_unknown_attribute(self, query):
        with pytest.raises(KeyError):
            Workload.attribute_marginals(query, "Z")

    def test_attribute_ranges_are_nested(self, query, instance):
        workload = Workload.attribute_ranges(query, "B", include_counting=False)
        answers = shared_evaluator(workload).answers_on_instance(instance)
        assert np.all(np.diff(answers) >= -1e-9)  # prefixes are monotone
        assert answers[-1] == pytest.approx(join_size(instance))

    def test_attribute_ranges_count_cap(self, query):
        workload = Workload.attribute_ranges(query, "B", count=2, include_counting=False)
        assert len(workload) == 2

    def test_random_predicates_selectivity(self, query):
        workload = Workload.random_predicates(
            query, 10, selectivity=0.3, seed=0, include_counting=False
        )
        weights = np.concatenate(
            [tq.weights.reshape(-1) for product in workload for tq in product.table_queries]
        )
        assert set(np.unique(weights)) <= {0.0, 1.0}
        assert 0.2 < weights.mean() < 0.4

    def test_random_predicates_validation(self, query):
        with pytest.raises(ValueError):
            Workload.random_predicates(query, 3, selectivity=0.0)

    def test_product_workload(self, query):
        r1 = query.relation("R1")
        pools = {
            "R1": [
                TableQuery.indicator(r1, {"B": [0]}),
                TableQuery.indicator(r1, {"B": [1]}),
            ]
        }
        workload = Workload.product(query, pools)
        assert len(workload) == 2
        limited = Workload.product(query, pools, limit=1)
        assert len(limited) == 1

    def test_empty_workload_rejected(self, query):
        with pytest.raises(ValueError):
            Workload(query, ())

    def test_extended(self, query):
        base = Workload.counting(query)
        extra = Workload.random_sign(query, 2, seed=3, include_counting=False)
        combined = base.extended(extra.queries)
        assert len(combined) == 3

    def test_names(self, query):
        workload = Workload.random_sign(query, 2, seed=0)
        assert workload.names()[0] == "count"


class TestEvaluator:
    def test_matrix_and_loop_agree(self, query, instance):
        workload = Workload.random_sign(query, 8, seed=4)
        evaluator = WorkloadEvaluator(workload)
        histogram = join_result(instance).astype(float)
        assert np.allclose(
            evaluator.answers_on_histogram(histogram),
            [product.evaluate_on_histogram(histogram) for product in workload],
        )

    def test_instance_answers_match_join_histogram(self, query, instance):
        workload = Workload.random_sign(query, 8, seed=5)
        evaluator = WorkloadEvaluator(workload)
        on_instance = evaluator.answers_on_instance(instance)
        on_histogram = evaluator.answers_on_histogram(join_result(instance).astype(float))
        assert np.allclose(on_instance, on_histogram)

    def test_query_values_shape(self, query):
        workload = Workload.random_sign(query, 3, seed=6)
        evaluator = WorkloadEvaluator(workload)
        assert workload[0].joint_values().size == query.joint_domain_size
        assert evaluator.domain_size == 64
        assert evaluator.num_queries == 4

    def test_histogram_size_checked(self, query):
        workload = Workload.counting(query)
        evaluator = WorkloadEvaluator(workload)
        with pytest.raises(ValueError):
            evaluator.answers_on_histogram(np.zeros(10))


def _release(query, histogram) -> ReleaseResult:
    synthetic = SyntheticDataset(query, histogram)
    return ReleaseResult(synthetic=synthetic, privacy=PrivacySpec(1.0, 1e-5), algorithm="test")


class TestReleaseScoring:
    """A release is scored one way: through ``ReleaseResult`` on the shared evaluator."""

    def test_release_error_report(self, query, instance):
        workload = Workload.counting(query)
        exact = join_result(instance).astype(float)
        report = _release(query, exact).error_report(instance, workload)
        assert report.max_abs_error == pytest.approx(0.0)
        assert report.num_queries == 1

    def test_release_max_error(self, query, instance):
        workload = Workload.counting(query)
        release = _release(query, np.zeros(query.shape))
        assert release.max_error(instance, workload) == pytest.approx(join_size(instance))

    def test_release_answer_workload(self, query, instance):
        workload = Workload.counting(query)
        release = _release(query, join_result(instance).astype(float))
        assert release.answer_workload(workload)[0] == pytest.approx(join_size(instance))

    @pytest.mark.parametrize("family", ["random_sign", "marginals"])
    def test_answer_workload_matches_per_query_answers(self, family):
        query = two_table_query(6, 5, 7)
        if family == "random_sign":
            workload = Workload.random_sign(query, 12, seed=3)
        else:
            workload = Workload.attribute_marginals(query, "A").extended(
                Workload.attribute_marginals(query, "C", include_counting=False).queries
            )
        histogram = np.random.default_rng(4).random(query.shape) * 10.0
        answers = _release(query, histogram).answer_workload(workload)
        assert answers.shape == (len(workload),)
        for answer, product in zip(answers, workload):
            reference = product.evaluate_on_histogram(histogram)
            assert abs(answer - reference) <= 1e-12 * max(1.0, abs(reference)), product.name


class TestErrorReport:
    def test_from_answers(self):
        report = ErrorReport.from_answers(
            np.array([1.0, 2.0, 3.0]), np.array([1.5, 2.0, 1.0]), ("a", "b", "c")
        )
        assert report.max_abs_error == pytest.approx(2.0)
        assert report.worst_query == "c"
        assert report.mean_abs_error == pytest.approx((0.5 + 0 + 2.0) / 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ErrorReport.from_answers(np.array([1.0]), np.array([1.0, 2.0]), ("a",))

    def test_names_length_mismatch_is_a_clear_error(self):
        # A short names tuple used to raise IndexError (or silently mislabel
        # the worst query when the worst index happened to be in range).
        with pytest.raises(ValueError, match="names"):
            ErrorReport.from_answers(
                np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 9.0]), ("a", "b")
            )
        with pytest.raises(ValueError, match="names"):
            ErrorReport.from_answers(
                np.array([1.0]), np.array([1.0]), ("a", "b", "c")
            )

    def test_empty_names_are_allowed(self):
        report = ErrorReport.from_answers(np.array([1.0]), np.array([3.0]), ())
        assert report.worst_query == ""
        assert report.max_abs_error == pytest.approx(2.0)

    def test_str(self):
        report = ErrorReport.from_answers(np.array([1.0]), np.array([2.0]), ("q",))
        assert "max=1.000" in str(report)
