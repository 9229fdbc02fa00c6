"""Tests for the command-line interface."""

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.telemetry.audit import verify_audit_journal


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "e1" in output and "e14" in output

    def test_demo(self, capsys):
        assert main(["demo", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "released under" in output

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

    def test_audit_out_refuses_an_existing_journal(self, tmp_path, capsys):
        path = tmp_path / "audit.jsonl"
        assert main(["demo", "--audit-out", str(path)]) == 0
        written = path.read_bytes()
        assert verify_audit_journal(path).records == 2  # pmw.total, pmw.rounds
        capsys.readouterr()
        assert main(["demo", "--audit-out", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"error: audit journal {path} already exists" in captured.err
        assert "released under" not in captured.out
        assert path.read_bytes() == written
        assert not telemetry.is_enabled()

    def test_telemetry_snapshot_shows_ledger_spend(self, capsys):
        assert main(["demo", "--telemetry"]) == 0
        output = capsys.readouterr().out
        metrics = json.loads(output[output.index("[demo telemetry]") + 16 :])["metrics"]
        assert metrics["privacy.charges{label=pmw.total}"] == 1.0
        assert metrics["privacy.charges{label=pmw.rounds}"] == 1.0
        spend = sorted(key for key in metrics if key.endswith("_spent"))
        assert spend == ["privacy.delta_spent", "privacy.epsilon_spent"]
        assert not telemetry.is_enabled()
