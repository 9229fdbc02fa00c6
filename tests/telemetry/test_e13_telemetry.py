"""End-to-end telemetry over E13: the ISSUE's acceptance scenario.

A telemetry-enabled smoke-size E13 run must attach a JSON metrics snapshot
to its result and export a Chrome trace whose spans cover every PMW round
and every mechanism invocation — with the round
spans nested under their run and the mechanism spans nested under their
round.  And recording must be inert: PMW selections are bitwise identical
with telemetry on or off.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import telemetry
from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.experiments import EXPERIMENTS
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query
from repro.relational.instance import Instance

_E13_SMOKE = dict(
    n_sweep=(30,), domain_shape={"X": 6, "Y": 6}, num_queries=8, trials=1, seed=0
)


def _run_with_telemetry():
    telemetry.configure()
    telemetry.reset()
    return EXPERIMENTS["e13"](**_E13_SMOKE)


class TestSnapshotAttachment:
    def test_result_carries_json_able_snapshot(self):
        result = _run_with_telemetry()
        snapshot = result["telemetry"]
        assert snapshot["enabled"] is True
        json.dumps(snapshot, default=str)  # the CLI prints exactly this
        metrics = snapshot["metrics"]
        assert metrics["pmw.runs"] >= 1
        assert metrics["pmw.rounds"] >= 1
        assert any(key.startswith("mechanism.invocations{") for key in metrics)

    def test_stage_summary_covers_the_pmw_loop(self):
        result = _run_with_telemetry()
        stages = result["telemetry"]["stages"]
        for stage in ("experiment.e13", "pmw.run", "pmw.round", "pmw.scores", "pmw.update"):
            assert stage in stages, sorted(stages)
            assert stages[stage]["count"] >= 1
            assert stages[stage]["wall_seconds"] >= 0.0


class TestSpanNesting:
    def test_rounds_nest_under_runs_and_mechanisms_under_rounds(self):
        _run_with_telemetry()
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

    def test_chrome_trace_loads_and_nests(self, tmp_path):
        _run_with_telemetry()
        path = tmp_path / "e13_trace.json"
        telemetry.export_chrome_trace(path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        names = {event["name"] for event in events}
        assert {"experiment.e13", "pmw.run", "pmw.round"} <= names
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
                instance, workload, 1.0, 1e-5, 2.0, seed=3, config=config
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
