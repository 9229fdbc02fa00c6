#!/usr/bin/env python
"""Smoke runner for the benchmark suite.

Run with::

    python benchmarks/run_all.py

Each ``bench_*.py`` script wraps one experiment module; this runner executes
every underlying experiment at tiny parameterisations (statistical assertions
are the benchmarks' job — the goal here is that no script can silently rot:
imports break, signatures drift, result keys disappear).  For every benchmark
script it

1. imports the script and checks it still defines a ``test_*`` entry point;
2. runs the wrapped experiment ``run()`` with tiny smoke kwargs, with the
   runtime telemetry layer recording (``repro.telemetry``);
3. checks the result carries the ``"table"`` contract every experiment obeys;
4. writes a machine-readable ``results/BENCH_<id>.json`` record (schema v2:
   wall time, peak traced memory, evaluation path, UTC timestamp, host
   info, and the per-stage wall/CPU timing breakdown from the run's tracing
   spans) so the performance trajectory can be tracked across PRs.

The CLI runs every benchmark even when some fail, reports each failure, and
exits non-zero if any smoke run failed or a record could not be written.
``--compare`` chains the ``benchmarks/compare.py`` regression gate (fresh
records vs the committed repo-root baseline) onto a clean sweep.

The test suite wires this in behind the opt-in ``bench_smoke`` marker
(``pytest --bench-smoke``), see ``tests/benchmarks/test_bench_smoke.py``.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.util
import json
import os
import platform as _platform
import shutil
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Iterator

import numpy as np

_BENCH_DIR = Path(__file__).resolve().parent
_SRC = _BENCH_DIR.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import telemetry  # noqa: E402  (path bootstrap must run first)
from repro.experiments import EXPERIMENTS  # noqa: E402
from repro.queries.evaluation import WorkloadEvaluator  # noqa: E402

#: Version of the ``BENCH_<id>.json`` record layout.  v2 added the UTC
#: timestamp, host info, and the telemetry stage breakdown.
BENCH_SCHEMA_VERSION = 2

#: Where the per-benchmark ``BENCH_<id>.json`` records land by default.
_RESULTS_DIR = _BENCH_DIR / "results"

#: benchmark script stem -> (experiment runner, tiny smoke kwargs)
SMOKE_RUNS: dict[str, tuple] = {
    "bench_e01_flawed_variants": (
        EXPERIMENTS["e1"],
        dict(n=40, side_domain_size=4, trials=2, seed=0),
    ),
    "bench_e02_two_table_scaling": (
        EXPERIMENTS["e2"],
        dict(num_values_sweep=(2, 4), degree_sweep=(2,), num_queries=6, trials=1, seed=0),
    ),
    "bench_e03_lower_bound_two_table": (
        EXPERIMENTS["e3"],
        dict(n=6, domain_size=3, num_queries=4, delta_sweep=(1, 2), seed=0),
    ),
    "bench_e04_delta_floor": (
        EXPERIMENTS["e4"],
        dict(degree_sweep=(1, 4), num_values=2, trials=2, seed=0),
    ),
    "bench_e05_multi_table": (
        EXPERIMENTS["e5"],
        dict(scale_sweep=(0.25,), num_queries=5, trials=1, seed=0),
    ),
    "bench_e06_uniformize_two_table": (
        EXPERIMENTS["e6"],
        dict(n_sweep=(16,), num_queries=5, trials=1, seed=0),
    ),
    "bench_e07_example42": (
        EXPERIMENTS["e7"],
        dict(k_sweep=(4,), num_queries=5, trials=1, seed=0),
    ),
    "bench_e08_hierarchical": (
        EXPERIMENTS["e8"],
        dict(domain_size=3, num_queries=4, seed=0),
    ),
    "bench_e09_worst_case_agm": (
        EXPERIMENTS["e9"],
        dict(domain_size=4, tuples_per_relation=8, trials=1, seed=0),
    ),
    "bench_e10_conforming": (
        EXPERIMENTS["e10"],
        dict(out_vectors=({1: 40},), num_queries=5, trials=1, seed=0),
    ),
    "bench_e11_baseline_composition": (
        EXPERIMENTS["e11"],
        dict(workload_sizes=(4, 8), num_join_values=6, tuples_per_relation=40, trials=1, seed=0),
    ),
    "bench_e12_tpch": (
        EXPERIMENTS["e12"],
        dict(scale_sweep=(0.25,), num_predicate_queries=4, seed=0),
    ),
    "bench_e13_single_table_pmw": (
        EXPERIMENTS["e13"],
        dict(n_sweep=(30,), domain_shape={"X": 6, "Y": 6}, num_queries=8, trials=1, seed=0),
    ),
    "bench_e14_privacy_audit": (
        EXPERIMENTS["e14"],
        dict(trials=10, seed=0),
    ),
    "bench_e20_observability": (
        EXPERIMENTS["e20"],
        dict(
            n=40,
            domain_shape={"X": 5, "Y": 5},
            num_queries=6,
            pmw_rounds=3,
            releases=2,
            overhead_repeats=1,
            scrape_threads=1,
            seed=0,
        ),
    ),
}


def benchmark_scripts() -> set[str]:
    """Stems of every ``bench_*.py`` script present in the benchmarks directory."""
    return {path.stem for path in _BENCH_DIR.glob("bench_*.py")}


def check_coverage() -> None:
    """Fail when a benchmark script has no smoke entry (or an entry is stale)."""
    scripts = benchmark_scripts()
    registered = set(SMOKE_RUNS)
    missing = scripts - registered
    stale = registered - scripts
    if missing:
        raise AssertionError(f"benchmark scripts without a smoke entry: {sorted(missing)}")
    if stale:
        raise AssertionError(f"smoke entries without a benchmark script: {sorted(stale)}")


def _load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(name, _BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def host_info() -> dict:
    """The host facts a perf record needs to be comparable across machines."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "effective_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1,
        "python": _platform.python_version(),
        "numpy": np.__version__,
        "platform": _platform.system(),
        "machine": _platform.machine(),
    }


def write_bench_record(name: str, result: dict, wall_seconds: float, peak_mib: float, json_dir: Path) -> Path:
    """Write one machine-readable ``BENCH_<id>.json`` performance record.

    The record carries the numbers the perf trajectory is tracked by across
    PRs: wall time, peak traced memory, and the evaluation path
    (``WorkloadEvaluator.mode``, the one factored evaluator).

    Schema v2 adds the UTC timestamp, the host info the numbers were taken
    on, and — when the run recorded telemetry — ``stages``: the per-span
    wall/CPU timing breakdown (PMW rounds, mechanism draws, ...) aggregated
    by stage name.
    """
    json_dir.mkdir(parents=True, exist_ok=True)
    snapshot = result.get("telemetry") or {}
    record = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": name,
        "experiment": name.removeprefix("bench_").split("_")[0],
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "host": host_info(),
        "wall_seconds": round(wall_seconds, 6),
        "peak_mib": round(peak_mib, 3),
        "backend": WorkloadEvaluator.mode,
        "stages": snapshot.get("stages", {}),
    }
    path = json_dir / f"BENCH_{name.removeprefix('bench_')}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def _execute_benchmark(
    name: str, runner, kwargs: dict, json_dir: Path | None
) -> dict:
    """Run one benchmark's experiment at smoke size and record its numbers.

    Checks the script still defines a ``test_*`` entry point, resets the
    telemetry registry so the record's stage breakdown covers exactly this
    run, and (unless ``json_dir`` is ``None``) writes the ``BENCH_<id>.json``
    record.  Raises on any contract violation — callers decide whether that
    aborts the sweep (:func:`iter_smoke_results`) or is collected and
    reported at the end (:func:`main`).
    """
    module = _load_bench_module(name)
    entry_points = [attr for attr in dir(module) if attr.startswith("test_")]
    if not entry_points:
        raise AssertionError(f"{name}.py defines no test_* entry point")
    telemetry.reset()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        result = runner(**kwargs)
        wall_seconds = time.perf_counter() - start
        # An experiment that profiles memory itself stops the global tracer
        # mid-run; its record then reports a 0 peak.
        peak_mib = (
            tracemalloc.get_traced_memory()[1] / 2**20 if tracemalloc.is_tracing() else 0.0
        )
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
    if not isinstance(result, dict) or "table" not in result:
        raise AssertionError(f"{name}: experiment result lost its 'table' contract")
    if json_dir is not None:
        write_bench_record(name, result, wall_seconds, peak_mib, json_dir)
    return result


def iter_smoke_results(json_dir: Path | None = _RESULTS_DIR) -> Iterator[tuple[str, dict]]:
    """Execute every benchmark's experiment at smoke size, yielding results.

    Each run is timed, memory-traced, and telemetry-recorded (the registry
    is reset per benchmark, so every record's stage breakdown covers exactly
    its own run); unless ``json_dir`` is ``None`` a ``BENCH_<id>.json``
    record is written per benchmark.  Telemetry is restored to disabled on
    the way out, even on failure.  The first failing benchmark raises — the
    CLI entry point (:func:`main`) instead runs every benchmark and reports
    all failures at the end.
    """
    check_coverage()
    telemetry_was_enabled = telemetry.is_enabled()
    telemetry.configure(enabled=True)
    try:
        for name, (runner, kwargs) in sorted(SMOKE_RUNS.items()):
            yield name, _execute_benchmark(name, runner, kwargs, json_dir)
    finally:
        if not telemetry_was_enabled:
            telemetry.disable()


def copy_records_to_root(json_dir: Path, root: Path | None = None) -> list[Path]:
    """Copy every ``BENCH_<id>.json`` record from ``json_dir`` to the repo root.

    The repo-root copies are the files the perf trajectory is diffed on across
    PRs — ``benchmarks/results/`` holds the canonical records, the root copies
    make regressions show up in a plain ``git diff`` of the top level.
    """
    root = _BENCH_DIR.parent if root is None else root
    copies = []
    for record in sorted(json_dir.glob("BENCH_*.json")):
        copies.append(Path(shutil.copy2(record, root / record.name)))
    return copies


def _load_compare_module():
    spec = importlib.util.spec_from_file_location("compare", _BENCH_DIR / "compare.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclass field resolution looks the module up by name at
    # class-creation time, so it must be registered before exec.
    sys.modules["compare"] = module
    spec.loader.exec_module(module)
    return module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=_RESULTS_DIR,
        help="directory for the per-benchmark BENCH_<id>.json records "
        f"(default: {_RESULTS_DIR})",
    )
    parser.add_argument(
        "--no-root-copy",
        action="store_true",
        help="skip copying the records to repo-root BENCH_<id>.json files",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="after the sweep, run the benchmarks/compare.py regression gate: "
        "fresh records vs the committed repo-root baseline (gate failure "
        "fails this run)",
    )
    args = parser.parse_args(argv)

    check_coverage()
    failures: list[str] = []
    telemetry_was_enabled = telemetry.is_enabled()
    telemetry.configure(enabled=True)
    try:
        for name, (runner, kwargs) in sorted(SMOKE_RUNS.items()):
            try:
                _execute_benchmark(name, runner, kwargs, args.results_dir)
            except Exception as exc:  # report every failure, then exit 1
                failures.append(name)
                print(f"{name}: FAILED — {type(exc).__name__}: {exc}", file=sys.stderr)
            else:
                print(f"{name}: ok")
    finally:
        if not telemetry_was_enabled:
            telemetry.disable()

    print(f"{len(SMOKE_RUNS) - len(failures)}/{len(SMOKE_RUNS)} benchmark scripts ok")
    print(f"performance records written to {args.results_dir}/BENCH_<id>.json")
    if failures:
        print(f"failed benchmarks: {', '.join(failures)}", file=sys.stderr)
        return 1
    if args.compare:
        # Gate before the root copy: copying first would overwrite the
        # committed baseline with the candidate and the diff would be empty.
        compare = _load_compare_module()
        gate = compare.main(["--candidate", str(args.results_dir)])
        if gate != 0:
            print("regression gate failed", file=sys.stderr)
            return 1
    if not args.no_root_copy:
        copies = copy_records_to_root(args.results_dir)
        print(f"{len(copies)} records copied to {_BENCH_DIR.parent}/BENCH_<id>.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
