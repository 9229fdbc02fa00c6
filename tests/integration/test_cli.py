"""Tests for the command-line interface."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro import cli, telemetry
from repro.cli import _budget, main
from repro.mechanisms.ledger import PrivacyLedger, ambient_ledgers
from repro.mechanisms.spec import PrivacySpec
from repro.telemetry.spans import SpanRing

#: The script CI's observability job runs on a traced E13.
_CHECK_PATH = Path(__file__).resolve().parents[1] / "telemetry" / "check_budget_against_trace.py"
_CHECK_SPEC = importlib.util.spec_from_file_location("check_budget_against_trace", _CHECK_PATH)
check_budget = importlib.util.module_from_spec(_CHECK_SPEC)
_CHECK_SPEC.loader.exec_module(check_budget)


def _snapshots(output: str) -> dict:
    """The JSON snapshots a run printed, by the name in their header."""
    decoder = json.JSONDecoder()
    snapshots = {}
    for block in output.split("\n[")[1:]:
        header, _, rest = block.partition("\n")
        if header.endswith(" telemetry]"):
            snapshots[header[: -len(" telemetry]")]] = decoder.raw_decode(rest)[0]
    return snapshots


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "e1" in output and "e14" in output

    def test_demo(self, capsys):
        assert main(["demo", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "released under" in output
        assert "telemetry]" not in output
        assert not telemetry.is_enabled()

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "e99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_small_experiment(self, capsys):
        assert main(["run", "e4", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "E4" in output
        assert "finished" in output

    def test_run_markdown(self, capsys):
        assert main(["run", "e4", "--markdown"]) == 0
        assert "|---" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_telemetry_snapshot_shows_ledger_spend(self, capsys):
        assert main(["demo", "--telemetry"]) == 0
        output = capsys.readouterr().out
        budget = json.loads(output[output.index("[demo telemetry]") + 16 :])["budget"]
        assert budget == {
            "charges": 2,
            "labels": {"pmw.rounds": 1, "pmw.total": 1},
            "epsilon": 0.5,
            "delta": 5e-6,
        }
        assert not telemetry.is_enabled()

    def test_run_traces_each_experiment_and_prints_its_snapshot(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["run", "e4", "--seed", "1", "--trace-out", str(trace)]) == 0
        output = capsys.readouterr().out
        snapshot = json.loads(output[output.index("[e4 telemetry]") + 14 :])
        assert snapshot["stages"]["experiment.e4"]["count"] == 1
        runs = snapshot["stages"]["pmw.run"]["count"]
        assert snapshot["budget"]["labels"] == {"pmw.rounds": runs, "pmw.total": runs}
        events = json.loads(trace.read_text())["traceEvents"]
        assert [event["name"] for event in events].count("experiment.e4") == 1
        assert not telemetry.is_enabled()

    def test_teardown_runs_every_step_when_the_trace_cannot_be_written(
        self, tmp_path, capsys
    ):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        with pytest.raises(OSError):
            main(["demo", "--trace-out", str(blocker / "trace.json")])
        assert "released under" in capsys.readouterr().out
        assert not telemetry.is_enabled()

    @pytest.mark.parametrize("flag", ["--metrics-port", "--serve-after", "--audit-out"])
    def test_removed_serving_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["demo", flag, "1"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_snapshots_accumulate_over_the_run(self, capsys):
        assert main(["run", "e4", "e13", "--seed", "1", "--telemetry"]) == 0
        snapshots = _snapshots(capsys.readouterr().out)
        assert list(snapshots) == ["e4", "e13"]
        first, second = snapshots["e4"]["stages"], snapshots["e13"]["stages"]
        assert first["experiment.e4"]["count"] == second["experiment.e4"]["count"] == 1
        assert "experiment.e13" not in first
        assert second["experiment.e13"]["count"] == 1
        assert second["pmw.run"]["count"] > first["pmw.run"]["count"] > 0
        for snapshot in snapshots.values():
            runs = snapshot["stages"]["pmw.run"]["count"]
            budget = snapshot["budget"]
            assert budget["labels"] == {"pmw.rounds": runs, "pmw.total": runs}
            assert budget["charges"] == 2 * runs
        assert not telemetry.is_enabled()

    def test_trace_out_alone_prints_the_snapshot_and_nests_rounds_in_the_run(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        assert main(["demo", "--trace-out", str(trace)]) == 0
        stages = _snapshots(capsys.readouterr().out)["demo"]["stages"]
        assert (stages["pmw.run"]["count"], stages["pmw.round"]["count"]) == (1, 5)
        events = json.loads(trace.read_text())["traceEvents"]
        (run,) = [event for event in events if event["name"] == "pmw.run"]
        rounds = [event for event in events if event["name"] == "pmw.round"]
        assert len(rounds) == 5
        for event in rounds:
            assert (event["pid"], event["tid"]) == (run["pid"], run["tid"])
            assert run["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= run["ts"] + run["dur"] + 1e-6
        assert not telemetry.is_enabled()

    def test_trace_out_names_the_spans_a_full_ring_dropped(
        self, tmp_path, capsys, monkeypatch
    ):
        trace = tmp_path / "trace.json"
        assert main(["demo", "--trace-out", str(trace)]) == 0
        assert "dropped" not in capsys.readouterr().err
        assert json.loads(trace.read_text())["metadata"]["dropped"] == 0

        monkeypatch.setattr(telemetry, "SpanRing", lambda: SpanRing(capacity=4))
        trace.unlink()
        assert main(["demo", "--trace-out", str(trace)]) == 0
        payload = json.loads(trace.read_text())
        recorded = payload["metadata"]["recorded"]
        assert len(payload["traceEvents"]) == 4 < recorded
        assert payload["metadata"] == {
            "recorded": recorded,
            "dropped": recorded - 4,
            "capacity": 4,
        }
        assert (
            f"[chrome trace written to {trace}; {recorded - 4:,} of {recorded:,} "
            "spans dropped (ring capacity 4)]"
        ) in capsys.readouterr().err

    def _check_budget_against_trace(
        self, tmp_path, capsys, command=("demo",)
    ) -> tuple[int, str, dict]:
        """Run a traced command, then CI's check on it: (exit status, stderr, budget)."""
        output, trace = tmp_path / "run.out", tmp_path / "trace.json"
        assert main([*command, "--telemetry", "--trace-out", str(trace)]) == 0
        output.write_text(capsys.readouterr().out)
        status = check_budget.main([str(output), str(trace)])
        budget = list(_snapshots(output.read_text()).values())[-1]["budget"]
        return status, capsys.readouterr().err, budget

    def test_printed_budget_matches_the_trace(self, tmp_path, capsys):
        status, errors, budget = self._check_budget_against_trace(tmp_path, capsys)
        assert (status, errors) == (0, "")
        assert (budget["charges"], budget["epsilon"], budget["delta"]) == (2, 0.5, 5e-6)

    def test_a_nested_ledger_still_charges_the_run_ledger(self, tmp_path, capsys):
        """E14 audits its 120 PMW runs in a ledger of its own, inside the run ledger."""
        status, errors, budget = self._check_budget_against_trace(
            tmp_path, capsys, ("run", "e14", "--seed", "1")
        )
        assert (status, errors) == (0, "")
        assert budget["labels"] == {"pmw.total": 120, "pmw.rounds": 120}
        assert budget["epsilon"] == pytest.approx(60.0)

    @pytest.mark.parametrize("defect", ["drop pmw.total", "pmw.rounds at full epsilon"])
    def test_budget_check_fails_on_a_misaccounted_run(
        self, defect, tmp_path, capsys, monkeypatch
    ):
        class MisaccountingLedger(PrivacyLedger):
            def charge(self, label, spec, *, parallel_group=None):
                if defect == "drop pmw.total" and label == "pmw.total":
                    return
                if defect == "pmw.rounds at full epsilon" and label == "pmw.rounds":
                    spec = PrivacySpec(2.0 * spec.epsilon, spec.delta)
                super().charge(label, spec, parallel_group=parallel_group)

        monkeypatch.setattr(cli, "PrivacyLedger", MisaccountingLedger)
        status, errors, _budget = self._check_budget_against_trace(tmp_path, capsys)
        assert status == 1
        assert "budget epsilon" in errors

    def test_teardown_runs_every_step_when_the_command_raises(
        self, tmp_path, monkeypatch
    ):
        def failing_demo(seed, ledger):
            assert ambient_ledgers()[-1] is ledger
            with telemetry.trace("before.failure"):
                pass
            raise RuntimeError("command failed")

        monkeypatch.setattr(cli, "_cmd_demo", failing_demo)
        trace = tmp_path / "trace.json"
        with pytest.raises(RuntimeError, match="command failed"):
            main(["demo", "--trace-out", str(trace)])
        assert not telemetry.is_enabled()
        events = json.loads(trace.read_text())["traceEvents"]
        assert [event["name"] for event in events] == ["before.failure"]


class TestBudget:
    def test_an_empty_ledger_reads_null(self):
        assert _budget(PrivacyLedger()) == {
            "charges": 0,
            "labels": {},
            "epsilon": None,
            "delta": None,
        }

    def test_counts_labels_and_composes_like_the_ledger(self):
        # Charges on disjoint buckets compose in parallel (their maximum),
        # so the budget is the ledger's composed total, not the sum of ε.
        ledger = PrivacyLedger()
        ledger.charge("pmw.select", PrivacySpec(0.01, 1e-9))
        ledger.charge("pmw.select", PrivacySpec(0.01, 1e-9))
        for _ in range(3):
            ledger.charge("bucket", PrivacySpec(0.5, 1e-6), parallel_group="buckets")
        budget = _budget(ledger)
        total = ledger.total()
        assert budget == {
            "charges": 5,
            "labels": {"pmw.select": 2, "bucket": 3},
            "epsilon": total.epsilon,
            "delta": total.delta,
        }
        assert budget["epsilon"] == pytest.approx(0.52)
        assert budget["delta"] == pytest.approx(2e-9 + 1e-6)
