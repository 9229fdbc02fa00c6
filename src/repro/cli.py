"""Command-line interface for the reproduction.

Usage::

    python -m repro.cli list                # list available experiments
    python -m repro.cli run e6              # run one experiment, print its table
    python -m repro.cli run all --seed 1    # run the full suite
    python -m repro.cli demo                # tiny end-to-end quickstart

``list`` prints the paper artefact each experiment reproduces; the
experiment's own module docstring (``repro.experiments.eNN_*``) says what it
measures and which claim it checks.

Every run is charged to one :class:`~repro.mechanisms.ledger.PrivacyLedger`
(scoped with :func:`~repro.mechanisms.ledger.use_ledger`).

``--telemetry`` turns the runtime telemetry layer on for the whole run
(``repro.telemetry``): each experiment runs inside an ``experiment.<id>``
span, PMW runs, rounds and mechanism draws are traced, and a JSON snapshot
is printed after each experiment (after the demo).  Its ``stages`` count
and time the spans by name since the run began; its ``budget`` is read
from the run ledger: the number of charges, their count per label, and
their composed ε and δ.  ``--trace-out PATH`` (implies ``--telemetry``)
additionally exports the recorded tracing spans as a Chrome-trace file —
load it at ``chrome://tracing`` or https://ui.perfetto.dev to see the
nested span timeline.  The span ring keeps the newest 16,384 spans: the
file's ``metadata`` and the ``[chrome trace written …]`` line on stderr
say how many older ones it lacks.

Both teardown steps — writing the trace, turning telemetry off — run even
when the command or the other step raises, and the error propagates once
they both have.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from contextlib import ExitStack

from repro import telemetry
from repro.experiments import DESCRIPTIONS, EXPERIMENTS
from repro.mechanisms.ledger import PrivacyLedger, use_ledger


def _budget(ledger: PrivacyLedger) -> dict:
    """The run ledger's charges, their count per label, and their composed (ε, δ)."""
    spent = ledger.spent()
    return {
        "charges": len(ledger),
        "labels": dict(Counter(entry.label for entry in ledger.entries)),
        "epsilon": None if spent is None else spent.epsilon,
        "delta": None if spent is None else spent.delta,
    }


def _print_snapshot(name: str, ledger: PrivacyLedger) -> None:
    """Print the telemetry snapshot, with the run ledger's budget, as JSON."""
    snapshot = dict(telemetry.snapshot(), budget=_budget(ledger))
    print(f"[{name} telemetry]")
    print(json.dumps(snapshot, indent=2, sort_keys=True, default=str))


def _write_trace(path: str) -> None:
    telemetry.export_chrome_trace(path)
    spans = telemetry.snapshot()["spans"]
    dropped = ""
    if spans["dropped"]:
        dropped = (
            f"; {spans['dropped']:,} of {spans['recorded']:,} spans dropped "
            f"(ring capacity {spans['capacity']:,})"
        )
    print(f"[chrome trace written to {path}{dropped}]", file=sys.stderr)


def _cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in EXPERIMENTS:
        print(f"{name.ljust(width)}  {DESCRIPTIONS[name]}")
    return 0


def _cmd_run(names: list[str], seed: int, markdown: bool, ledger: PrivacyLedger) -> int:
    targets = list(EXPERIMENTS) if names == ["all"] else names
    unknown = [name for name in targets if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for name in targets:
        start = time.perf_counter()
        with telemetry.trace(f"experiment.{name}"):
            result = EXPERIMENTS[name](seed=seed)
        elapsed = time.perf_counter() - start
        table = result["table"]
        print()
        print(table.to_markdown() if markdown else table.to_text())
        print(f"[{name} finished in {elapsed:.1f}s]")
        if telemetry.is_enabled():
            _print_snapshot(name, ledger)
    return 0


def _cmd_demo(seed: int, ledger: PrivacyLedger) -> int:
    from repro import Instance, Workload, release_synthetic_data, two_table_query
    from repro.relational.join import join_size

    query = two_table_query(8, 8, 8)
    instance = Instance.from_tuple_lists(
        query,
        {
            "R1": [(i % 8, i % 4) for i in range(40)],
            "R2": [(i % 4, (3 * i) % 8) for i in range(40)],
        },
    )
    workload = Workload.attribute_marginals(query, "B")
    result = release_synthetic_data(
        instance, workload, epsilon=1.0, delta=1e-5, seed=seed
    )
    report = result.error_report(instance, workload)
    print(f"instance: n={instance.total_size()}, join size={join_size(instance)}")
    print(f"released under {result.privacy} via {result.algorithm}")
    print(f"workload of {len(workload)} marginal queries: {report}")
    if telemetry.is_enabled():
        _print_snapshot("demo", ledger)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Differentially private data release over multiple tables (PODS 2023 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser("run", help="run one or more experiments")
    run_parser.add_argument("experiments", nargs="+", help="experiment ids (or 'all')")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--markdown", action="store_true", help="print GitHub-flavoured tables")
    demo_parser = subparsers.add_parser("demo", help="tiny end-to-end quickstart")
    demo_parser.add_argument("--seed", type=int, default=0)
    for sub in (run_parser, demo_parser):
        sub.add_argument(
            "--telemetry",
            action="store_true",
            help="trace the whole run and print a JSON snapshot (span counts "
            "and times, the ledger's budget) per experiment",
        )
        sub.add_argument(
            "--trace-out",
            metavar="PATH",
            default=None,
            help="write the recorded tracing spans as a Chrome-trace JSON "
            "file (chrome://tracing / ui.perfetto.dev); implies --telemetry",
        )

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    ledger = PrivacyLedger()
    # Teardown runs last-registered first: the trace, then telemetry off.
    with ExitStack() as teardown:
        if args.telemetry or args.trace_out is not None:
            telemetry.configure()
            teardown.callback(telemetry.disable)
        if args.trace_out is not None:
            teardown.callback(_write_trace, args.trace_out)
        with use_ledger(ledger):
            if args.command == "run":
                return _cmd_run(args.experiments, args.seed, args.markdown, ledger)
            return _cmd_demo(args.seed, ledger)


if __name__ == "__main__":
    raise SystemExit(main())
