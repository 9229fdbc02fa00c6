"""The lazy ``h = c·g`` histogram session against an eager histogram.

A session keeps its histogram as a scale ``c`` times a cell array ``g``
with a running ``Σg``, and its average lazily, so that a round on a support
``S`` touches only ``S``.  These tests hold it to an eager float64
histogram over a long mixed run that moves ``c`` far in both directions,
and count the cells a round actually reads or writes.
"""

from __future__ import annotations

import numpy as np

from repro.core.pmw import _update
from repro.core.synthetic import assemble_flat_histogram
from repro.queries import evaluation
from repro.queries.evaluation import WorkloadEvaluator
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query


def _marginals(query, *, include_counting):
    workload = Workload.attribute_marginals(query, "A", include_counting=include_counting)
    for name in ("B", "C"):
        workload = workload.extended(
            Workload.attribute_marginals(query, name, include_counting=False).queries
        )
    return workload


def _assert_relative(actual, expected, tolerance, context):
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(np.asarray(actual) - expected)) <= tolerance * scale, context


def test_lazy_session_tracks_an_eager_histogram_over_3000_rounds():
    # Marginals (partial supports), the counting query and ±1 queries
    # (whole-domain supports).  The counting query is picked in ~30 % of the
    # rounds with an exponent whose sign flips every 500 rounds, so within
    # each 500 rounds the renormalisations alone move the scale by more
    # than 2^8, down and up in turn.  Rounds 2200-2399 re-weight one
    # marginal, up 100 times and then down 100 times, with no whole-domain
    # update between: its support soon holds nearly all the mass, so the
    # scale falls and then rises by over 2^100 while only that support is
    # flushed.  One round forces a reset through ``scale(0.0)``.
    query = two_table_query(12, 5, 6)
    workload = _marginals(query, include_counting=True).extended(
        Workload.random_sign(query, 3, seed=2, include_counting=False).queries
    )
    evaluator = WorkloadEvaluator(workload)
    counting = 0
    assert evaluator.query_support(counting)[0].size == query.joint_domain_size
    total, domain_size, rounds, reset_round = 700.0, query.joint_domain_size, 3000, 1700
    session = evaluator.histogram_session(np.full(domain_size, total / domain_size))
    eager = np.full(domain_size, total / domain_size)
    eager_sum = np.zeros(domain_size)
    rng = np.random.default_rng(5)
    log2_scale, checkpoints = 0.0, []
    for round_index in range(rounds):
        if round_index % 500 == 0:
            checkpoints.append(log2_scale)
        if 2200 <= round_index < 2400:
            selected, step = 1, (1.0 if round_index < 2300 else -1.0)
        elif rng.random() < 0.3:
            selected = counting
            sign = 1.0 if (round_index // 500) % 2 == 0 else -1.0
            step = sign * rng.uniform(0.2, 0.6)
        else:
            selected = int(rng.integers(1, len(workload)))
            step = rng.normal(scale=0.5)
        indices, values = evaluator.query_support(selected)
        factors = np.exp(np.clip(values * step, -1.0, 1.0))
        session.scale_support(indices, factors)
        eager[indices] *= factors
        if round_index == reset_round:
            session.scale(0.0)
            eager *= 0.0
        _assert_relative(session.total(), eager.sum(), 1e-9, round_index)
        if eager.sum() > 0.0:
            scale = total / session.total()
            session.scale(scale)
            eager *= total / eager.sum()
            log2_scale += np.log2(scale)
        else:
            session.fill(total / domain_size)
            eager.fill(total / domain_size)
        session.accumulate()
        eager_sum += eager
        _assert_relative(
            session.answers(), evaluator.answers_on_histogram(eager), 1e-9, round_index
        )
    averaged = assemble_flat_histogram(domain_size, session.averaged_slices(rounds))
    _assert_relative(averaged, eager_sum / rounds, 1e-9, "average")
    moves = np.diff(checkpoints + [log2_scale])
    assert np.all(moves[0::2] < -8.0) and np.all(moves[1::2] > 8.0), moves
    assert session.rebases > 2 * len(moves)


def test_weight_rule_rebases_before_the_running_weight_swamps_the_scale():
    # The scale stays inside [2^-8, 2^8] but falls 40000-fold after 6000
    # accumulates: the next one finds W > 2^20·c and rebases.
    query = two_table_query(2, 2, 2)
    evaluator = WorkloadEvaluator(Workload.attribute_marginals(query, "A"))
    cells = np.arange(1.0, 9.0)
    session = evaluator.histogram_session(cells)
    session.scale(200.0)
    for _ in range(6000):
        session.accumulate()
    session.scale(1.0 / 40000.0)
    assert session.rebases == 0
    session.accumulate()
    assert session.rebases == 1
    _assert_relative(session.total(), cells.sum() * 200.0 / 40000.0, 1e-12, "total")
    ((_start, _stop, averaged),) = session.averaged_slices(6001)
    expected = (cells * 200.0 * 6000 + cells * 200.0 / 40000.0) / 6001
    _assert_relative(averaged, expected, 1e-12, "average")


class _Counted(np.ndarray):
    """A view of session storage that counts the cells each operation reads or writes."""

    cells = 0

    @staticmethod
    def _plain(value):
        return value.view(np.ndarray) if isinstance(value, _Counted) else value

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        operands = inputs + (out or ())
        _Counted.cells += sum(operand.size for operand in operands if isinstance(operand, _Counted))
        if out is not None:
            kwargs["out"] = tuple(self._plain(operand) for operand in out)
        result = getattr(ufunc, method)(*(self._plain(operand) for operand in inputs), **kwargs)
        return out[0] if out is not None and len(out) == 1 else result

    def __array_function__(self, func, types, args, kwargs):
        _Counted.cells += sum(arg.size for arg in args if isinstance(arg, _Counted))
        return func(*(self._plain(arg) for arg in args), **kwargs)

    def __getitem__(self, key):
        result = self.view(np.ndarray)[key]
        _Counted.cells += np.size(result)
        return result

    def __setitem__(self, key, value):
        plain = self.view(np.ndarray)
        _Counted.cells += np.size(plain[key])
        plain[key] = value

    def fill(self, value):
        _Counted.cells += self.size
        self.view(np.ndarray).fill(value)


def _storage(session, domain_size):
    return {
        name: value
        for name, value in vars(session).items()
        if isinstance(value, np.ndarray) and value.size == domain_size
    }


def test_support_rounds_touch_only_the_support(monkeypatch):
    # Marginals at |D| = 2^16 with the column view on: a support holds
    # 1/64 (A or C) or 1/16 (B) of the domain, so a round that passed over
    # the whole domain once would show up as at least |D| cells.
    monkeypatch.setattr(evaluation, "_MATRIX_CELL_BUDGET", 0)
    query = two_table_query(64, 16, 64)
    workload = _marginals(query, include_counting=False)
    evaluator = WorkloadEvaluator(workload)
    total, domain_size = 5000.0, query.joint_domain_size
    assert domain_size == 2**16
    session = evaluator.histogram_session(np.full(domain_size, total / domain_size))
    rng = np.random.default_rng(11)

    def round_(answers):
        selected = int(rng.integers(len(workload)))
        indices, values = evaluator.query_support(selected)
        factors = np.exp(np.clip(values * rng.normal(scale=0.5), -1.0, 1.0))
        answers = _update(session, indices, factors, total, domain_size, answers)
        session.accumulate()
        return answers if answers is not None else session.answers(), indices.size

    answers, _size = round_(session.answers())  # allocates the accumulator
    storage = _storage(session, domain_size)
    assert len(storage) == 3  # the cells, the accumulator, the flushed weights
    for name, value in storage.items():
        setattr(session, name, value.view(_Counted))
    touched = []
    for _ in range(300):
        _Counted.cells = 0
        rebases = session.rebases
        answers, size = round_(answers)
        assert all(isinstance(value, _Counted) for value in _storage(session, domain_size).values())
        if session.rebases == rebases:
            touched.append((_Counted.cells, size))
    assert len(touched) >= 295
    assert all(0 < cells <= 8 * size for cells, size in touched), max(touched)
    _Counted.cells = 0
    assemble_flat_histogram(domain_size, session.averaged_slices(301))
    assert _Counted.cells >= 3 * domain_size  # the final flush reads every cell
