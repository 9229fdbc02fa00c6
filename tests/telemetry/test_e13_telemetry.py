"""End-to-end telemetry over E13.

A telemetry-enabled E13 run must leave a JSON-able snapshot whose span
counts are the run's own: one ``pmw.run`` span per PMW run, one
``pmw.round`` span per iteration the runs report, and one
``mechanism.<name>`` span per noise draw.  Its Chrome trace must cover every
PMW round and mechanism invocation, with the round spans nested under their
run and the mechanism spans under their round.  And recording must be
inert: PMW selections are bitwise identical with telemetry on or off.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import telemetry
from repro.core import release
from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.experiments import EXPERIMENTS
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query
from repro.relational.instance import Instance


@pytest.fixture
def pmw_results(monkeypatch):
    """Run E13 with telemetry on; the PMW results it produced.

    E13 releases single-table data, so every noise draw of the run is one of
    its PMW runs': a truncated-Laplace total, then one exponential selection
    and one Laplace measurement per round.
    """
    results = []

    def recording(*args, **kwargs):
        result = private_multiplicative_weights(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(release, "private_multiplicative_weights", recording)
    telemetry.configure()
    EXPERIMENTS["e13"](seed=0)
    assert results
    return results


class TestStageCounts:
    def test_snapshot_counts_the_runs_rounds_and_draws(self, pmw_results):
        snapshot = telemetry.snapshot()
        json.dumps(snapshot, default=str)  # the CLI prints exactly this
        counts = {name: stage["count"] for name, stage in snapshot["stages"].items()}
        runs = [span for span in telemetry.span_dicts() if span["name"] == "pmw.run"]
        assert counts["pmw.run"] == len(runs) == len(pmw_results)
        assert counts["pmw.round"] == sum(span["attrs"]["iterations"] for span in runs)
        assert counts["pmw.round"] == sum(result.iterations for result in pmw_results) > 0
        selections = sum(len(result.selected_queries) for result in pmw_results)
        assert counts["mechanism.exponential"] == counts["mechanism.laplace"] == selections
        totals = sum(result.total_privacy is not None for result in pmw_results)
        assert counts["mechanism.truncated_laplace"] == totals == len(pmw_results)

    def test_stage_summary_covers_the_pmw_loop(self, pmw_results):
        stages = telemetry.snapshot()["stages"]
        for stage in ("pmw.run", "pmw.round", "pmw.scores", "pmw.update"):
            assert stage in stages, sorted(stages)
            assert stages[stage]["count"] >= 1
            assert stages[stage]["wall_seconds"] >= 0.0


class TestSpanNesting:
    def test_rounds_nest_under_runs_and_mechanisms_under_rounds(self, pmw_results):
        spans = telemetry.span_dicts()
        by_id = {span["id"]: span for span in spans}
        rounds = [span for span in spans if span["name"] == "pmw.round"]
        assert rounds
        for round_span in rounds:
            parent = by_id[round_span["parent"]]
            assert parent["name"] == "pmw.run"
        mechanisms = [span for span in spans if span["name"].startswith("mechanism.")]
        assert mechanisms
        # The exponential/Laplace draws of the PMW loop sit inside a round;
        # the initial total-size estimate sits directly under the run.
        parent_names = {by_id[span["parent"]]["name"] for span in mechanisms}
        assert "pmw.round" in parent_names
        assert parent_names <= {"pmw.round", "pmw.run"}

    def test_chrome_trace_loads_and_nests(self, pmw_results, tmp_path):
        path = tmp_path / "e13_trace.json"
        telemetry.export_chrome_trace(path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        names = {event["name"] for event in events}
        assert {"pmw.run", "pmw.round"} <= names
        assert any(name.startswith("mechanism.") for name in names)
        # Nesting is time containment: every round interval sits inside
        # some run interval on the same pid/tid.
        runs = [event for event in events if event["name"] == "pmw.run"]
        for event in events:
            if event["name"] != "pmw.round":
                continue
            assert any(
                run["ts"] <= event["ts"]
                and event["ts"] + event["dur"] <= run["ts"] + run["dur"] + 1e-6
                and (run["pid"], run["tid"]) == (event["pid"], event["tid"])
                for run in runs
            )


class TestRecordingIsInert:
    def test_pmw_selections_bitwise_identical_on_and_off(self):
        query = two_table_query(4, 4, 4)
        rng = np.random.default_rng(11)
        instance = Instance.from_tuple_lists(
            query,
            {
                "R1": [
                    (int(rng.integers(4)), int(rng.integers(4))) for _ in range(30)
                ],
                "R2": [
                    (int(rng.integers(4)), int(rng.integers(4))) for _ in range(30)
                ],
            },
        )
        workload = Workload.random_sign(query, 10, seed=0)
        config = PMWConfig(num_iterations=4)

        def run_once():
            return private_multiplicative_weights(
                instance, workload, 1.0, 1e-5, 2.0, rng=np.random.default_rng(3), config=config
            )

        telemetry.disable()
        off = run_once()
        telemetry.configure()
        on = run_once()
        telemetry.disable()
        off_again = run_once()
        assert off.selected_queries == on.selected_queries == off_again.selected_queries
        assert np.array_equal(off.histogram, on.histogram)
        assert np.array_equal(off.histogram, off_again.histogram)
