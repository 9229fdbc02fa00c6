"""Opt-in smoke execution of every benchmark script (``--bench-smoke``).

The benchmark suite lives outside the default test collection (the scripts
take minutes at full size), which historically lets them rot silently.  These
tests drive ``benchmarks/run_all.py``: every ``bench_*.py`` must have a
registered tiny-size smoke configuration, still define a ``test_*`` entry
point, and its experiment must execute and honour the ``"table"`` result
contract.

Run with::

    pytest tests/benchmarks --bench-smoke
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

pytestmark = pytest.mark.bench_smoke

_BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


def _load_run_all():
    spec = importlib.util.spec_from_file_location("run_all", _BENCH_DIR / "run_all.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_script_has_a_smoke_entry():
    run_all = _load_run_all()
    run_all.check_coverage()
    assert set(run_all.SMOKE_RUNS) == run_all.benchmark_scripts()


def test_all_benchmark_scripts_execute(tmp_path):
    run_all = _load_run_all()
    executed = []
    for name, result in run_all.iter_smoke_results(json_dir=tmp_path):
        executed.append(name)
        assert "table" in result
    assert sorted(executed) == sorted(run_all.SMOKE_RUNS)
    # Every run leaves a machine-readable BENCH_<id>.json perf record with
    # the numbers the cross-PR performance trajectory is tracked by.
    for name in executed:
        record_path = tmp_path / f"BENCH_{name.removeprefix('bench_')}.json"
        assert record_path.exists(), record_path
        record = json.loads(record_path.read_text())
        assert record["schema_version"] == run_all.BENCH_SCHEMA_VERSION
        assert record["benchmark"] == name
        assert record["wall_seconds"] >= 0.0
        assert record["peak_mib"] >= 0.0
        assert isinstance(record["backend"], str) and record["backend"]
        # Schema v2: a parseable UTC timestamp, the host facts the numbers
        # were taken on, and the telemetry stage breakdown.
        assert record["timestamp_utc"]
        host = record["host"]
        assert host["cpu_count"] >= 1 and host["effective_cpus"] >= 1
        assert host["python"] and host["numpy"] and host["platform"]
        assert isinstance(record["stages"], dict)
    # The smoke runner records telemetry, so stage timings must be present
    # for the PMW-driven benchmarks (each stage carries wall/CPU totals).
    e13 = json.loads(
        (tmp_path / "BENCH_e13_single_table_pmw.json").read_text()
    )
    assert "pmw.round" in e13["stages"], sorted(e13["stages"])
    round_stage = e13["stages"]["pmw.round"]
    assert round_stage["count"] >= 1
    assert round_stage["wall_seconds"] >= 0.0
