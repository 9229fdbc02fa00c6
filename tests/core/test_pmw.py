"""Unit tests for the PMW routine (Algorithm 2)."""

import numpy as np
import pytest

from repro import telemetry
from repro.core.pmw import (
    PMWConfig,
    _renormalize,
    _update,
    private_multiplicative_weights,
)
from repro.core.release import release_synthetic_data
from repro.queries import evaluation
from repro.queries.evaluation import WorkloadEvaluator, shared_evaluator
from repro.queries.linear import ProductQuery, TableQuery
from repro.queries.workload import Workload
from repro.relational.hypergraph import chain_query, two_table_query
from repro.relational.instance import Instance
from repro.relational.join import join_size


@pytest.fixture
def query():
    return two_table_query(4, 4, 4)


@pytest.fixture
def instance(query):
    tuples_r1 = [(a, a % 4) for a in range(4) for _ in range(3)]
    tuples_r2 = [(b, (b + 1) % 4) for b in range(4) for _ in range(3)]
    return Instance.from_tuple_lists(query, {"R1": tuples_r1, "R2": tuples_r2})


@pytest.fixture
def recording():
    """Telemetry on for one test, off again after it."""
    telemetry.configure()
    yield
    telemetry.disable()


class TestBasicProperties:
    def test_histogram_shape_and_nonnegativity(self, instance, query):
        workload = Workload.random_sign(query, 10, seed=0)
        result = private_multiplicative_weights(
            instance, workload, 1.0, 1e-5, 2.0, rng=np.random.default_rng(1)
        )
        assert result.histogram.shape == query.shape
        assert np.all(result.histogram >= 0)

    def test_total_mass_matches_noisy_total(self, instance, query):
        workload = Workload.random_sign(query, 10, seed=0)
        result = private_multiplicative_weights(
            instance, workload, 1.0, 1e-5, 2.0, rng=np.random.default_rng(1)
        )
        assert result.histogram.sum() == pytest.approx(result.noisy_total, rel=1e-6)

    def test_noisy_total_never_below_true_count(self, instance, query):
        workload = Workload.counting(query)
        for seed in range(5):
            result = private_multiplicative_weights(
                instance, workload, 1.0, 1e-5, 2.0, rng=np.random.default_rng(seed)
            )
            assert result.noisy_total >= join_size(instance)

    def test_reproducible_with_seed(self, instance, query):
        workload = Workload.random_sign(query, 10, seed=0)
        first = private_multiplicative_weights(
            instance, workload, 1.0, 1e-5, 2.0, rng=np.random.default_rng(3)
        )
        second = private_multiplicative_weights(
            instance, workload, 1.0, 1e-5, 2.0, rng=np.random.default_rng(3)
        )
        assert np.array_equal(first.histogram, second.histogram)
        assert first.selected_queries == second.selected_queries

    def test_iterations_respect_config(self, instance, query):
        workload = Workload.random_sign(query, 10, seed=0)
        config = PMWConfig(num_iterations=3)
        result = private_multiplicative_weights(
            instance, workload, 1.0, 1e-5, 2.0, rng=np.random.default_rng(1), config=config
        )
        assert result.iterations == 3
        assert len(result.selected_queries) == 3

    def test_auto_iterations_clamped(self, instance, query):
        workload = Workload.random_sign(query, 10, seed=0)
        config = PMWConfig(max_iterations=2)
        result = private_multiplicative_weights(
            instance, workload, 1.0, 1e-5, 1.0, rng=np.random.default_rng(1), config=config
        )
        assert result.iterations <= 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_iterations", 0),
            ("num_iterations", -3),
            ("max_iterations", 0),
            ("max_iterations", -1),
        ],
    )
    def test_config_rejects_iteration_counts_below_one(self, field, value):
        with pytest.raises(ValueError, match=field):
            PMWConfig(**{field: value})

    def test_force_total_override(self, instance, query):
        workload = Workload.counting(query)
        config = PMWConfig(force_total=123.0, num_iterations=2)
        result = private_multiplicative_weights(
            instance, workload, 1.0, 1e-5, 1.0, rng=np.random.default_rng(1), config=config
        )
        assert result.noisy_total == 123.0

    def test_empty_instance_with_forced_zero_total(self, query):
        workload = Workload.counting(query)
        config = PMWConfig(force_total=0.0)
        result = private_multiplicative_weights(
            Instance.empty(query), workload, 1.0, 1e-5, 1.0, rng=np.random.default_rng(1),
            config=config
        )
        assert result.iterations == 0
        assert np.all(result.histogram == 0)

    def test_one_session_on_shared_evaluator(self, instance, query, monkeypatch):
        workload = Workload.random_sign(query, 6, seed=0)
        evaluator = shared_evaluator(workload)
        sessions = []
        open_session = evaluator.histogram_session

        def counted_session(*args, **kwargs):
            sessions.append(open_session(*args, **kwargs))
            return sessions[-1]

        monkeypatch.setattr(evaluator, "histogram_session", counted_session)
        result = private_multiplicative_weights(
            instance, workload, 1.0, 1e-5, 2.0, rng=np.random.default_rng(2)
        )
        assert result.iterations > 0
        assert len(sessions) == 1
        assert shared_evaluator(workload) is evaluator

    def test_parameter_validation(self, instance, query, rng):
        workload = Workload.counting(query)
        with pytest.raises(ValueError):
            private_multiplicative_weights(instance, workload, 0.0, 1e-5, 1.0, rng=rng)
        with pytest.raises(ValueError):
            private_multiplicative_weights(instance, workload, 1.0, 0.0, 1.0, rng=rng)
        with pytest.raises(ValueError):
            private_multiplicative_weights(instance, workload, 1.0, 1e-5, 0.0, rng=rng)


class TestBudgetSplit:
    """Lemma 3.2: the noisy total and the adaptive rounds each get (ε/2, δ/2)."""

    def test_split_recorded_in_result(self, instance, query):
        workload = Workload.counting(query)
        epsilon, delta = 1.0, 1e-5
        result = private_multiplicative_weights(
            instance, workload, epsilon, delta, 2.0, rng=np.random.default_rng(0)
        )
        assert result.total_privacy.epsilon == pytest.approx(epsilon / 2.0)
        assert result.total_privacy.delta == pytest.approx(delta / 2.0)
        assert result.rounds_privacy.epsilon == pytest.approx(epsilon / 2.0)
        assert result.rounds_privacy.delta == pytest.approx(delta / 2.0)

    def test_epsilon_per_round_drawn_from_remaining_half(self, instance, query):
        from math import log, sqrt

        workload = Workload.random_sign(query, 10, seed=0)
        epsilon, delta = 1.0, 1e-5
        result = private_multiplicative_weights(
            instance, workload, epsilon, delta, 2.0, rng=np.random.default_rng(1)
        )
        expected = (epsilon / 2.0) / (
            16.0 * sqrt(result.iterations * max(log(2.0 / delta), 1.0))
        )
        assert result.epsilon_per_round == pytest.approx(expected)

    def test_forced_total_spends_no_budget_on_step_one(self, instance, query):
        from math import log, sqrt

        workload = Workload.counting(query)
        epsilon, delta = 1.0, 1e-5
        config = PMWConfig(force_total=50.0, num_iterations=4)
        result = private_multiplicative_weights(
            instance, workload, epsilon, delta, 1.0, rng=np.random.default_rng(0), config=config
        )
        assert result.total_privacy is None
        assert result.rounds_privacy.epsilon == pytest.approx(epsilon)
        assert result.rounds_privacy.delta == pytest.approx(delta)
        expected = epsilon / (16.0 * sqrt(4 * max(log(1.0 / delta), 1.0)))
        assert result.epsilon_per_round == pytest.approx(expected)

    def test_split_recorded_on_nonpositive_total(self, query):
        workload = Workload.counting(query)
        result = private_multiplicative_weights(
            Instance.empty(query),
            workload,
            1.0,
            1e-5,
            1.0,
            rng=np.random.default_rng(1),
            config=PMWConfig(force_total=0.0),
        )
        assert result.iterations == 0
        assert result.rounds_privacy is not None


@pytest.mark.parametrize("force_total", [None, 0.0], ids=["released-total", "zero-total"])
def test_run_span_carries_the_runs_figures(instance, query, recording, force_total):
    workload = Workload.random_sign(query, 10, seed=0)
    result = private_multiplicative_weights(
        instance, workload, 1.0, 1e-5, 2.0, rng=np.random.default_rng(
            1), config=PMWConfig(force_total=force_total
        )
    )
    (run,) = [span for span in telemetry.span_dicts() if span["name"] == "pmw.run"]
    assert run["attrs"]["iterations"] == result.iterations
    assert run["attrs"]["noisy_total"] == result.noisy_total
    assert run["attrs"]["epsilon_per_round"] == result.epsilon_per_round


class TestUtility:
    def test_learns_marginals_on_moderate_instance(self):
        """With a generous budget, PMW should answer marginals better than the
        trivial uniform baseline."""
        query = two_table_query(6, 6, 6)
        rng = np.random.default_rng(0)
        tuples_r1 = [(int(rng.integers(6)), int(rng.integers(2))) for _ in range(300)]
        tuples_r2 = [(int(rng.integers(2)), int(rng.integers(6))) for _ in range(300)]
        instance = Instance.from_tuple_lists(query, {"R1": tuples_r1, "R2": tuples_r2})
        workload = Workload.attribute_marginals(query, "B")
        evaluator = shared_evaluator(workload)
        true_answers = evaluator.answers_on_instance(instance)

        result = private_multiplicative_weights(
            instance,
            workload,
            epsilon=4.0,
            delta=1e-3,
            sensitivity_bound=1.0,
            rng=np.random.default_rng(7),
            config=PMWConfig(force_total=float(join_size(instance)), num_iterations=40),
        )
        released = evaluator.answers_on_histogram(result.histogram)
        uniform = np.full(query.shape, join_size(instance) / query.joint_domain_size)
        uniform_answers = evaluator.answers_on_histogram(uniform)
        pmw_error = np.max(np.abs(released - true_answers))
        uniform_error = np.max(np.abs(uniform_answers - true_answers))
        assert pmw_error < uniform_error


class TestRenormalisation:
    """Regression: degenerate histogram totals must not propagate NaN.

    The renormalisation divides by the session total; a fully clamped (or
    underflowed) histogram reports total 0 and a corrupted one NaN or inf.
    Dividing by either would poison every cell, so such sessions are reset
    to the uniform start histogram instead.
    """

    def _session(self, query, value):
        workload = Workload.random_sign(query, 4, seed=0)
        evaluator = WorkloadEvaluator(workload)
        return evaluator.histogram_session(
            np.full(query.joint_domain_size, value, dtype=float)
        )

    @staticmethod
    def _cells(session):
        # Read the histogram through the op protocol only (the backing
        # array is private to the queries package): one accumulate on a
        # fresh accumulator followed by averaged_slices(1) round-trips the
        # current contents.
        session.accumulate()
        return np.concatenate(
            [cells for _start, _stop, cells in session.averaged_slices(1.0)]
        )

    def test_zero_total_resets_to_uniform(self, query):
        session = self._session(query, 0.0)
        assert _renormalize(session, 64.0, query.joint_domain_size) is None
        cells = self._cells(session)
        assert np.all(np.isfinite(cells))
        assert np.all(cells == 64.0 / query.joint_domain_size)

    def test_nonfinite_total_resets_to_uniform(self, query):
        for poison in (np.nan, np.inf):
            session = self._session(query, poison)
            assert _renormalize(session, 64.0, query.joint_domain_size) is None
            assert np.all(np.isfinite(self._cells(session))), poison
            assert session.total() == pytest.approx(64.0), poison

    def test_only_a_reset_records_a_span(self, query, recording):
        _renormalize(self._session(query, 2.0), 64.0, query.joint_domain_size)
        assert "pmw.reset" not in telemetry.snapshot()["stages"]
        _renormalize(self._session(query, 0.0), 64.0, query.joint_domain_size)
        assert telemetry.snapshot()["stages"]["pmw.reset"]["count"] == 1

    def test_positive_total_rescales_mass(self, query):
        session = self._session(query, 2.0)
        total = 2.0 * query.joint_domain_size
        assert _renormalize(session, 64.0, query.joint_domain_size) == 64.0 / total
        assert session.total() == pytest.approx(64.0)
        assert np.all(self._cells(session) == 64.0 / query.joint_domain_size)


def _one_way_marginals(query, *, include_counting):
    first, *rest = query.attribute_names
    workload = Workload.attribute_marginals(query, first, include_counting=include_counting)
    for name in rest:
        workload = workload.extended(
            Workload.attribute_marginals(query, name, include_counting=False).queries
        )
    return workload


def _boxed_queries(query) -> list[ProductQuery]:
    """Queries whose boxes exercise every change path but the one-way marginals'.

    ±1 weights on both relations over a run of A (a group over two
    relations, sliced box), then over scattered A and C values (an
    ``np.ix_`` box), and an indicator of scattered A values (a one-relation
    ``np.ix_`` box).
    """
    rng = np.random.default_rng(12)
    r1, r2 = query.relations

    def signs(schema, axis, kept):
        weights = rng.choice([-1.0, 1.0], size=schema.shape)
        mask = np.zeros(schema.shape[axis], dtype=bool)
        mask[list(kept)] = True
        return TableQuery(schema.name, weights * np.expand_dims(mask, 1 - axis))

    scattered = np.zeros(r1.shape)
    scattered[[1, 4, 9]] = 1.0
    return [
        ProductQuery(query, [signs(r1, 0, range(2, 8)), signs(r2, 1, range(6))]),
        ProductQuery(query, [signs(r1, 0, (0, 3, 4, 10)), signs(r2, 1, (1, 4))]),
        ProductQuery(query, [TableQuery(r1.name, scattered)]),
    ]


class TestCarriedAnswers:
    """Answers carried across rounds from the changes support updates report.

    The loop re-evaluates the workload only without carried answers: round
    one, after a renormalisation reset, and after an update whose session
    reported no change.  Carrying must stay within 1e-9 of a full
    evaluation without any periodic refresh, and must actually be taken
    where a full evaluation is costly (forced on these small workloads by
    patching the matrix budget to 0).
    """

    def test_drift_stays_within_1e9_over_1200_rounds(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_MATRIX_CELL_BUDGET", 0)
        query = two_table_query(12, 5, 6)
        workload = _one_way_marginals(query, include_counting=True).extended(
            _boxed_queries(query)
        )
        evaluator = WorkloadEvaluator(workload)
        groups = {group.relations for group in evaluator._groups()}
        assert groups == {(), (0,), (1,), (0, 1)}
        boxes = [evaluator.query_support(index)[0] for index in range(len(workload))]
        assert sum(not isinstance(box[0], slice) for box in boxes) == 2
        total, domain_size = 700.0, query.joint_domain_size
        session = evaluator.histogram_session(np.full(domain_size, total / domain_size))
        rng = np.random.default_rng(3)
        reset_round = 600
        answers = session.answers()
        fallbacks = []
        for round_index in range(1200):
            selected = int(rng.integers(len(workload)))
            indices, values = evaluator.query_support(selected)
            factors = np.exp(np.clip(values * rng.normal(scale=0.5), -1.0, 1.0))
            if round_index == reset_round:
                session.scale(0.0)  # an underflowed histogram: renormalisation resets it
            answers = _update(session, indices, factors, total, domain_size, answers)
            full = session.answers()
            if answers is None:
                fallbacks.append((round_index, selected))
                answers = full
            scale = max(1.0, float(np.abs(full).max()))
            assert np.max(np.abs(answers - full)) <= 1e-9 * scale, round_index
        # Falls back exactly on the counting query (index 0) and the reset.
        assert fallbacks
        assert all(selected == 0 or round_index == reset_round for round_index, selected in fallbacks)
        assert reset_round in [round_index for round_index, _ in fallbacks]
        assert len(fallbacks) < 100

    @pytest.mark.parametrize(
        "matrix_budget, full_evaluations",
        [(0, 1), (evaluation._MATRIX_CELL_BUDGET, 12)],
        ids=["carried-1", "evaluated-12"],
    )
    def test_full_evaluations_per_run(self, matrix_budget, full_evaluations, monkeypatch):
        monkeypatch.setattr(evaluation, "_MATRIX_CELL_BUDGET", matrix_budget)
        query = two_table_query(12, 5, 6)
        rng = np.random.default_rng(8)
        r1 = [(int(rng.integers(12)), int(rng.integers(5))) for _ in range(90)]
        r2 = [(int(rng.integers(5)), int(rng.integers(6))) for _ in range(110)]
        instance = Instance.from_tuple_lists(query, {"R1": r1, "R2": r2})
        workload = _one_way_marginals(query, include_counting=False)
        calls = _counted_full_evaluations(workload, monkeypatch)
        result = private_multiplicative_weights(
            instance, workload, 1.0, 1e-5, 2.0, rng=np.random.default_rng(
                5), config=PMWConfig(num_iterations=12
            )
        )
        assert result.iterations == 12
        assert len(calls) == full_evaluations

    def test_chain_marginals_carry_under_the_default_budget(self, monkeypatch):
        """``chain_query([8] * 5)``'s marginals are over the budget, unpatched.

        40 one-way marginals over ``|D| = 8^5`` sweep 1,310,720 matrix cells
        per full evaluation, above ``_MATRIX_CELL_BUDGET`` = 2^20, and no box
        is the whole domain, so a 30-round run evaluates the workload once.
        """
        query = chain_query([8] * 5)
        rng = np.random.default_rng(9)
        frequencies = {
            schema.name: 100 + rng.integers(0, 21, size=schema.shape) for schema in query.relations
        }
        instance = Instance.from_frequencies(query, frequencies)
        workload = _one_way_marginals(query, include_counting=False)
        assert shared_evaluator(workload)._carries()
        calls = _counted_full_evaluations(workload, monkeypatch)
        result = private_multiplicative_weights(
            instance, workload, 0.2, 1e-6, 2.0, rng=np.random.default_rng(
                1), config=PMWConfig(num_iterations=30
            )
        )
        assert result.iterations == 30
        assert len(calls) == 1


def _counted_full_evaluations(workload, monkeypatch) -> list:
    """A list that gains an entry per full evaluation of ``workload``'s PMW sessions."""
    evaluator = shared_evaluator(workload)
    calls = []
    open_session = evaluator.histogram_session

    def counted_session(*args, **kwargs):
        session = open_session(*args, **kwargs)
        answers = session.answers
        monkeypatch.setattr(session, "answers", lambda: calls.append(1) or answers())
        return session

    monkeypatch.setattr(evaluator, "histogram_session", counted_session)
    return calls


def test_in_place_factors_never_reach_the_evaluator(monkeypatch):
    """PMW turns each round's support values into its factors in place.

    Those values must be the loop's own array: after an Algorithm 4 release
    and an Algorithm 1 release over one workload, every support, broadcast
    onto its box, is still bitwise the dense values taken before the
    releases there, and every stack is bitwise what it was.  The releases
    update one-relation marginals (values copied from one factor, one cell),
    ±1 queries over both relations (two factors multiplied out over the
    box) and the boxed queries, ``np.ix_`` boxes among them.
    """
    query = two_table_query(12, 5, 6)
    rng = np.random.default_rng(8)
    r1 = [(int(rng.integers(12)), int(rng.integers(5))) for _ in range(300)]
    r2 = [(int(rng.integers(5)), int(rng.integers(6))) for _ in range(300)]
    instance = Instance.from_tuple_lists(query, {"R1": r1, "R2": r2})
    marginals = _one_way_marginals(query, include_counting=True)
    boxed = _boxed_queries(query)
    signs = Workload.random_sign(query, 4, seed=3, include_counting=False).queries
    workload = marginals.extended(boxed + list(signs))
    evaluator = shared_evaluator(workload)
    dense = [product.joint_values() for product in workload]
    stacks = [stack.copy() for group in evaluator._groups() for stack in group.stacks]
    asked = []
    query_support = evaluator.query_support
    monkeypatch.setattr(
        evaluator, "query_support", lambda index: asked.append(index) or query_support(index)
    )
    for method in ("uniformize_two_table", "two_table"):
        release_synthetic_data(
            instance,
            workload,
            1.0,
            1e-5,
            method=method,
            seed=4,
            pmw_config=PMWConfig(num_iterations=60),
        )
    monkeypatch.undo()
    first_boxed, first_sign = len(marginals), len(marginals) + len(boxed)
    assert any(0 < index < first_boxed for index in asked)  # a marginal
    assert any(first_boxed <= index < first_sign for index in asked)  # a boxed query
    assert any(index >= first_sign for index in asked)  # a ±1 query
    for index, values in enumerate(dense):
        box, support = evaluator.query_support(index)
        on_box = np.broadcast_to(support, values[box].shape)
        assert on_box.tobytes() == values[box].tobytes(), index
    after = [stack for group in evaluator._groups() for stack in group.stacks]
    assert all(stack.tobytes() == kept.tobytes() for stack, kept in zip(after, stacks))
