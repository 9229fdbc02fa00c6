"""Telemetry costs little on the instrumented hot paths, on or off.

Three guarantees, tested at two granularities:

- Micro: with telemetry disabled, ``trace`` hands back the shared null
  span — no allocation, no recording.
- Macro, disabled: an E13 run (the PMW loop is the most densely
  instrumented path in the repo) with telemetry disabled stays within 5%
  wall time (plus an absolute jitter allowance) of the same run with every
  instrumented call site short-circuited to raw no-ops via monkeypatching.
- Macro, observed: PMW runs with telemetry and a charged ledger both on
  keep their selections and stay within the same allowance of the bare
  runs.

The macro comparisons use min-of-N: the minimum over repeats estimates the
noise floor far better than the mean on a busy CI box.
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.datagen.random_instances import random_instance
from repro.experiments import EXPERIMENTS
from repro.mechanisms.ledger import PrivacyLedger, use_ledger
from repro.queries.workload import Workload
from repro.relational.hypergraph import single_table_query
from repro.telemetry.spans import NULL_SPAN

_REPEATS = 5
# 5% relative, plus an absolute floor: the E13 run takes ≈ 48 ms on a 2-vCPU
# host, where a single scheduler hiccup dwarfs any plausible instrumentation
# cost.
_RELATIVE_SLACK = 0.05
_ABSOLUTE_SLACK_SECONDS = 0.050


def _min_wall_seconds() -> float:
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        EXPERIMENTS["e13"](seed=0)
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_instruments_are_shared_null_singletons():
    assert not telemetry.is_enabled()
    # The same object every time: the disabled path never allocates.
    assert telemetry.trace("pmw.round", query=0) is NULL_SPAN
    assert telemetry.trace("pmw.run") is NULL_SPAN


def test_disabled_run_attaches_no_telemetry():
    result = EXPERIMENTS["e13"](seed=0)
    assert "telemetry" not in result


def test_enabled_run_returns_the_same_result_keys():
    # The runners are the raw functions: recording adds spans, never keys.
    disabled = EXPERIMENTS["e13"](seed=0)
    telemetry.configure()
    enabled = EXPERIMENTS["e13"](seed=0)
    assert telemetry.snapshot()["stages"]["pmw.run"]["count"] >= 1
    assert "telemetry" not in enabled
    assert set(enabled) == set(disabled)


def test_disabled_overhead_under_five_percent(monkeypatch):
    assert not telemetry.is_enabled()
    # Warm every code path (imports, caches) before timing anything.
    EXPERIMENTS["e13"](seed=0)

    disabled = _min_wall_seconds()

    # Baseline: the same run with the instrumented call sites in the PMW
    # loop (the hot path) bypassed entirely — what the code would cost had
    # it never been instrumented.
    import repro.core.pmw as pmw

    monkeypatch.setattr(pmw, "trace", lambda name, **attrs: NULL_SPAN)
    baseline = _min_wall_seconds()

    allowance = baseline * _RELATIVE_SLACK + _ABSOLUTE_SLACK_SECONDS
    assert disabled <= baseline + allowance, (
        f"disabled-telemetry run took {disabled:.4f}s vs {baseline:.4f}s "
        f"uninstrumented baseline (allowance {allowance:.4f}s)"
    )


def test_observed_run_keeps_selections_within_allowance():
    query = single_table_query({"X": 6, "Y": 6})
    setup_rng = np.random.default_rng(0)
    instance = random_instance(query, 60, rng=setup_rng)
    workload = Workload.random_sign(query, 8, rng=setup_rng)
    config = PMWConfig(num_iterations=6)

    def timed_pass() -> tuple[float, list[int]]:
        """Four seeded PMW releases: (wall seconds, concatenated selections)."""
        rng = np.random.default_rng(1)
        selections: list[int] = []
        start = time.perf_counter()
        for _ in range(4):
            result = private_multiplicative_weights(
                instance, workload, 1.0, 1e-5, 1.0, rng=rng, config=config
            )
            selections.extend(result.selected_queries)
        return time.perf_counter() - start, selections

    timed_pass()  # warm caches before timing anything
    bare = [timed_pass() for _ in range(_REPEATS)]
    telemetry.configure()
    ledger = PrivacyLedger()
    with use_ledger(ledger):
        observed = [timed_pass() for _ in range(_REPEATS)]

    assert len(ledger) == 2 * 4 * _REPEATS  # pmw.total and pmw.rounds per run
    assert all(selections == bare[0][1] for _, selections in bare + observed)
    baseline = min(wall for wall, _ in bare)
    allowance = baseline * _RELATIVE_SLACK + _ABSOLUTE_SLACK_SECONDS
    assert min(wall for wall, _ in observed) <= baseline + allowance, (
        f"observed runs took {observed} vs {baseline:.4f}s bare "
        f"(allowance {allowance:.4f}s)"
    )
