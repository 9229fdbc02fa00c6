"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload two_table_marginals --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: the library is imported from
``src/`` beside this directory, never from an installed copy.  ``--trace 0``
prints the end-to-end metrics and ``--trace 1`` the per-layer ones, and also
writes the spans as a Chrome trace under ``.perfbench/``.  The line before
the result records the host, the thread settings and the resolved
backend.  ``--workload all`` runs every workload in a fresh process of its
own and prints all their metrics, named ``<workload>/<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Pinned to one thread before numpy loads: on a 2-vCPU host a second BLAS
#: thread changed the dense-query release time by half.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv: list[str] | None, workloads: tuple[str, ...]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_library():
    """Import ``repro`` from this checkout's ``src/``; ``None`` when it is not there."""
    source = ROOT / "src"
    sys.path[:] = [str(source), str(ROOT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != HERE
    ]
    try:
        import repro
    except ImportError as error:
        print(f"cannot import repro from {source}: {error}", file=sys.stderr)
        return None
    if not Path(repro.__file__).resolve().is_relative_to(source):
        print(f"repro resolved to {repro.__file__}, outside {source}", file=sys.stderr)
        return None
    return repro


def host_facts() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "platform": platform.platform(),
        "cpu": model,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": os.getloadavg() if hasattr(os, "getloadavg") else None,
        "python": platform.python_version(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def run_each(args: argparse.Namespace, workloads: tuple[str, ...]) -> int:
    """Run every workload in a child process and print one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-2])["record"]
            result = json.loads(lines[-1])
        except (IndexError, KeyError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {completed.returncode})", file=sys.stderr)
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        samples = {"setup_s": len(record["setup_s"]), "release_s": len(record["release_s"])}
        for metric, measured in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = measured
            value = measured["value"]
            shown = str(int(value)) if float(value).is_integer() else f"{value:.6g}"
            count = f"  (median of {samples[metric]})" if metric in samples else ""
            print(f"{name}/{metric} = {shown} {measured['unit']}{count}")
        print(f"{name}: backend {record['backend']}, {result['failed']} of "
              f"{result['attempted']} releases failed")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    repro = import_library()
    if repro is None:
        return 2
    import numpy

    from perfbench import measure, spans, workloads

    args = parse_args(argv, workloads.WORKLOADS)
    if args.workload == "all":
        return run_each(args, workloads.WORKLOADS)
    inputs = workloads.build_inputs(args.workload, args.seed)
    result, run = measure.execute(inputs, args.seconds, bool(args.trace))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": run.evaluator.mode,
        "engine": run.evaluator.engine,
        "numpy": numpy.__version__,
        "host": host_facts(),
        "release_seeds": list(workloads.RELEASE_SEEDS),
        "setup_s": run.setup_times,
        "release_s": run.release_times,
        "traced_release_s": run.traced_times,
        "linf_error_rel": {str(seed): error for seed, error in run.errors.items()},
    }
    if run.tracer is not None:
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        spans.write_chrome_trace(run.tracer, trace_path, record)
        record["chrome_trace"] = str(trace_path.relative_to(ROOT))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
