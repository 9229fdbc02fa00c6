"""Baseline round-trip (add -> fix -> stale-entry error) and CLI exit codes."""

from __future__ import annotations

import json
from textwrap import dedent

import pytest

from repro.analysis.static import Baseline, BaselineError, write_baseline
from repro.analysis.static.cli import main
from repro.analysis.static.rules import NoiseLocalityRule

VIOLATION = "def f(rng):\n    return rng.laplace(0.0, 1.0)\n"
CLEAN = "def f(rng):\n    return rng.integers(0, 4)\n"


def _write_tree(tmp_path, source):
    root = tmp_path / "repro"
    (root / "core").mkdir(parents=True, exist_ok=True)
    (root / "core" / "foo.py").write_text(source)
    return root


# --- baseline API round-trip ------------------------------------------------


def test_baseline_round_trip(tmp_path, scan):
    result = scan({"core/foo.py": VIOLATION}, rules=[NoiseLocalityRule()])
    assert len(result.findings) == 1

    baseline_path = tmp_path / "baseline.json"
    count = write_baseline(baseline_path, result.findings)
    assert count == 1
    payload = json.loads(baseline_path.read_text())
    assert payload["entries"][0]["code"] == "DPA102"
    assert payload["entries"][0]["path"] == "core/foo.py"

    # Grandfathered: the same scan under the baseline is clean.
    baseline = Baseline.load(baseline_path)
    filtered = baseline.apply(result.findings)
    assert filtered == []

    # Fixed: the entry goes stale and is itself an error.
    stale = Baseline.load(baseline_path).apply([])
    assert [finding.code for finding in stale] == ["DPA001"]
    assert "stale" in stale[0].message


def test_baseline_requires_justification(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [{"code": "DPA102", "path": "core/foo.py", "justification": "  "}],
            }
        )
    )
    with pytest.raises(BaselineError, match="justification"):
        Baseline.load(path)


def test_baseline_rejects_malformed_files(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("[]")
    with pytest.raises(BaselineError, match="version"):
        Baseline.load(path)
    path.write_text("{not json")
    with pytest.raises(BaselineError, match="cannot read"):
        Baseline.load(path)


# --- CLI --------------------------------------------------------------------


def test_cli_exit_0_on_clean_tree(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _write_tree(tmp_path, CLEAN)
    assert main([str(root)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_exit_1_and_formats(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _write_tree(tmp_path, VIOLATION)

    assert main([str(root), "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert "DPA102" in out and "core/foo.py:2" in out

    assert main([str(root), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["findings"][0]["code"] == "DPA102"
    assert payload["findings"][0]["line"] == 2

    assert main([str(root), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert "title=DPA102" in out


def test_cli_exit_2_on_usage_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _write_tree(tmp_path, CLEAN)
    assert main([str(tmp_path / "missing")]) == 2
    assert main([str(root), "--rules", "DPA999"]) == 2
    assert main([str(root), "--baseline", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad-baseline.json"
    bad.write_text("{}")
    assert main([str(root), "--baseline", str(bad)]) == 2
    capsys.readouterr()


def test_cli_rules_filter(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _write_tree(tmp_path, VIOLATION)
    # DPA106 alone does not see the noise call.
    assert main([str(root), "--rules", "DPA106"]) == 0
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("DPA101", "DPA102", "DPA103", "DPA104", "DPA106"):
        assert code in out


def test_cli_write_baseline_then_enforce_then_stale(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _write_tree(tmp_path, VIOLATION)
    baseline = tmp_path / "dpa-baseline.json"

    assert main([str(root), "--write-baseline", str(baseline)]) == 0
    capsys.readouterr()

    # The skeleton's TODO justification is non-empty, so it loads; replace it
    # the way a committer would.
    payload = json.loads(baseline.read_text())
    payload["entries"][0]["justification"] = "legacy noise call, tracked in #123"
    baseline.write_text(json.dumps(payload))

    assert main([str(root), "--baseline", str(baseline)]) == 0
    capsys.readouterr()

    # Default discovery: dpa-baseline.json in the CWD is picked up.
    assert main([str(root)]) == 0
    capsys.readouterr()

    # Fix the violation: the baseline entry goes stale and fails the run.
    (root / "core" / "foo.py").write_text(CLEAN)
    assert main([str(root), "--baseline", str(baseline)]) == 1
    assert "DPA001" in capsys.readouterr().out

    # --no-baseline ignores the file entirely.
    assert main([str(root), "--no-baseline"]) == 0
    capsys.readouterr()
