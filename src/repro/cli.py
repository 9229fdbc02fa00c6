"""Command-line interface for the reproduction.

Usage::

    python -m repro.cli list                # list available experiments
    python -m repro.cli run e6              # run one experiment, print its table
    python -m repro.cli run all --seed 1    # run the full suite
    python -m repro.cli demo                # tiny end-to-end quickstart

``list`` prints the paper artefact each experiment reproduces; the
experiment's own module docstring (``repro.experiments.eNN_*``) says what it
measures and which claim it checks.

``--telemetry`` turns the runtime telemetry layer on for the whole run
(``repro.telemetry``): PMW rounds and mechanism invocations are
counted/timed, and a JSON metrics snapshot is printed after each
experiment.  Every run is charged to one
:class:`~repro.mechanisms.ledger.PrivacyLedger` (scoped with
:func:`~repro.mechanisms.ledger.use_ledger`); with telemetry on, its
charges feed the ``privacy.*`` spend counters.  ``--trace-out PATH``
(implies ``--telemetry``) additionally exports the recorded tracing spans
as a Chrome-trace file — load it at ``chrome://tracing`` or
https://ui.perfetto.dev to see the nested span timeline.

``--metrics-port PORT`` (implies ``--telemetry``) starts the live scrape
exporter (``repro.telemetry.exporter``) for the duration of the run:
``/metrics`` serves Prometheus text exposition, ``/healthz`` liveness,
``/budget`` the run ledger's privacy spend, ``/spans`` the Chrome trace.
Port 0 picks a free ephemeral port (printed on stderr).  ``--serve-after
SECONDS`` keeps the exporter up after the run finishes so an external
scraper (or a CI curl) can collect the final state.

``--audit-out PATH`` (implies ``--telemetry``) streams each charge of the
run ledger into a new hash-chained audit journal (``repro.telemetry.audit``)
at PATH.  The journal is created before anything runs; an existing PATH is
refused with exit status 2 and left as it was.  After the run the journal
is verified — replayed, chain-checked, and cross-checked against the run
ledger — and a one-line summary is printed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro import telemetry
from repro.experiments import DESCRIPTIONS, EXPERIMENTS
from repro.mechanisms.ledger import PrivacyLedger, use_ledger
from repro.telemetry.audit import AuditJournal, verify_audit_journal
from repro.telemetry.exporter import TelemetryExporter


def _cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in EXPERIMENTS:
        print(f"{name.ljust(width)}  {DESCRIPTIONS[name]}")
    return 0


def _cmd_run(names: list[str], seed: int, markdown: bool) -> int:
    targets = list(EXPERIMENTS) if names == ["all"] else names
    unknown = [name for name in targets if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for name in targets:
        start = time.perf_counter()
        result = EXPERIMENTS[name](seed=seed)
        elapsed = time.perf_counter() - start
        table = result["table"]
        print()
        print(table.to_markdown() if markdown else table.to_text())
        print(f"[{name} finished in {elapsed:.1f}s]")
        snapshot = result.get("telemetry")
        if snapshot is not None:
            print(f"[{name} telemetry]")
            print(json.dumps(snapshot, indent=2, sort_keys=True, default=str))
    return 0


def _cmd_demo(seed: int) -> int:
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
        print("[demo telemetry]")
        print(json.dumps(telemetry.snapshot(), indent=2, sort_keys=True, default=str))
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
            help="record runtime telemetry (metrics + tracing spans) for the "
            "whole run and print a JSON snapshot per experiment",
        )
        sub.add_argument(
            "--trace-out",
            metavar="PATH",
            default=None,
            help="write the recorded tracing spans as a Chrome-trace JSON "
            "file (chrome://tracing / ui.perfetto.dev); implies --telemetry",
        )
        sub.add_argument(
            "--metrics-port",
            metavar="PORT",
            type=int,
            default=None,
            help="serve live /metrics, /healthz, /budget and /spans endpoints "
            "on 127.0.0.1:PORT for the duration of the run (0 = ephemeral "
            "port, printed on stderr); implies --telemetry",
        )
        sub.add_argument(
            "--audit-out",
            metavar="PATH",
            default=None,
            help="stream every privacy charge of the run into a hash-chained "
            "audit journal at PATH and verify it after the run; implies "
            "--telemetry",
        )
        sub.add_argument(
            "--serve-after",
            metavar="SECONDS",
            type=float,
            default=0.0,
            help="keep the --metrics-port exporter serving this long after "
            "the run finishes (e.g. for a CI scrape of the final state)",
        )

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    journal = None
    if args.audit_out is not None:
        try:
            journal = AuditJournal(args.audit_out)
        except FileExistsError:
            print(f"error: audit journal {args.audit_out} already exists", file=sys.stderr)
            return 2
    observed = (
        args.telemetry
        or args.trace_out is not None
        or args.metrics_port is not None
        or journal is not None
    )
    ledger = PrivacyLedger()
    if observed:
        telemetry.configure(enabled=True)
        telemetry.observe_ledger(ledger)
    if journal is not None:
        journal.attach(ledger)
    exporter = None
    try:
        if args.metrics_port is not None:
            exporter = TelemetryExporter(port=args.metrics_port).start()
            exporter.register_ledger(ledger)
            print(f"[metrics exporter listening on {exporter.url()}]", file=sys.stderr)
        with use_ledger(ledger):
            if args.command == "run":
                return _cmd_run(args.experiments, args.seed, args.markdown)
            return _cmd_demo(args.seed)
    finally:
        if args.trace_out is not None:
            telemetry.export_chrome_trace(args.trace_out)
            print(f"[chrome trace written to {args.trace_out}]", file=sys.stderr)
        if exporter is not None:
            if args.serve_after > 0:
                print(
                    f"[serving {exporter.url()} for another {args.serve_after:g}s]",
                    file=sys.stderr,
                )
                time.sleep(args.serve_after)
            exporter.stop()
        if observed:
            telemetry.disable()
        if journal is not None:
            journal.close()
            report = verify_audit_journal(args.audit_out, ledger=ledger)
            print(
                f"[audit journal verified: {report.records} record(s), "
                f"composed spend ε={report.epsilon}, δ={report.delta}, "
                f"matches the live ledger — {args.audit_out}]",
                file=sys.stderr,
            )


if __name__ == "__main__":
    raise SystemExit(main())
