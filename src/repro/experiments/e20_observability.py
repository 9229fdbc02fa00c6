"""E20 — the observability layer, audited end to end.

PR 8 instrumented the stack; this experiment proves the *externally
consumable* layer on top of it holds its three contracts simultaneously
during a live PMW run:

1. **Audit fidelity.**  Every PMW budget charge flows through the ambient
   :class:`~repro.mechanisms.ledger.PrivacyLedger` into a hash-chained
   :class:`~repro.telemetry.audit.AuditJournal`; replaying the journal
   (:func:`~repro.telemetry.audit.verify_audit_journal`) must reproduce the
   ledger's composed (ε, δ) total *bitwise* and stay within the declared
   budget — and a tampered copy of the journal (edited, deleted, swapped,
   diverged) must be rejected with the matching distinct error.
2. **Consistent live scrapes.**  A :class:`~repro.telemetry.exporter.TelemetryExporter`
   serves ``/metrics``, ``/healthz``, ``/budget`` and ``/spans`` while PMW
   runs; concurrent scraper threads must only ever see parseable Prometheus
   text exposition and self-consistent budget JSON (spent ε never exceeds
   the declared budget, never decreases between scrapes).
3. **Observability is free-ish and invisible.**  With journal + exporter
   enabled the run must stay within a few percent of the bare run, and the
   PMW selections must be bitwise identical — observability cannot touch
   the RNG.

The returned dictionary carries the raw verdicts the E20 benchmark asserts
on (``journal_matches_ledger``, ``tamper_detection``, ``scrapes``,
``overhead_pct``, ``selections_identical``).
"""

from __future__ import annotations

import json
import re
import shutil
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.analysis.reporting import ExperimentTable
from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.datagen.random_instances import random_instance
from repro.mechanisms.ledger import PrivacyLedger, use_ledger
from repro.mechanisms.spec import PrivacySpec
from repro.queries.workload import Workload
from repro.relational.hypergraph import single_table_query
from repro.telemetry.audit import (
    AuditDivergenceError,
    AuditGapError,
    AuditJournal,
    AuditOrderError,
    AuditTamperError,
    AuditVerificationError,
    verify_audit_journal,
)
from repro.telemetry.exporter import TelemetryExporter

#: A Prometheus text-exposition sample line: name, optional labels, value.
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})?\s+(NaN|[+-]Inf|[-+0-9].*)$"
)


def _valid_exposition(body: str) -> bool:
    """Whether every line of ``body`` parses as Prometheus text exposition."""
    for line in body.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            return False
        value = match.group(2)
        if value not in ("NaN", "+Inf", "-Inf"):
            try:
                float(value)
            except ValueError:
                return False
    return True


class _Scraper(threading.Thread):
    """Hammer the exporter endpoints until told to stop, recording verdicts."""

    def __init__(self, base_url: str, stop: threading.Event) -> None:
        super().__init__(daemon=True)
        self.base_url = base_url
        self.stop_event = stop
        self.metrics_scrapes = 0
        self.parse_failures = 0
        self.budget_scrapes = 0
        self.budget_failures = 0
        self.health_scrapes = 0
        self.errors: list[str] = []
        self._last_epsilon_spent = 0.0

    def run(self) -> None:
        while not self.stop_event.is_set():
            try:
                with urllib.request.urlopen(
                    self.base_url + "/metrics", timeout=5
                ) as response:
                    body = response.read().decode("utf-8")
                self.metrics_scrapes += 1
                if not _valid_exposition(body):
                    self.parse_failures += 1
                with urllib.request.urlopen(
                    self.base_url + "/budget", timeout=5
                ) as response:
                    budget = json.loads(response.read().decode("utf-8"))
                self.budget_scrapes += 1
                for tenant in budget["tenants"].values():
                    spent = tenant["spent"]["epsilon"]
                    declared = tenant.get("budget", {}).get("epsilon")
                    # Spend only ever grows, and never past the declaration.
                    if spent + 1e-12 < self._last_epsilon_spent or (
                        declared is not None and spent > declared + 1e-9
                    ):
                        self.budget_failures += 1
                    self._last_epsilon_spent = max(self._last_epsilon_spent, spent)
                with urllib.request.urlopen(
                    self.base_url + "/healthz", timeout=5
                ) as response:
                    health = json.loads(response.read().decode("utf-8"))
                self.health_scrapes += 1
                if health.get("status") != "ok":
                    self.errors.append(f"healthz status {health.get('status')}")
            except Exception as exc:  # noqa: BLE001 - report, don't kill the run
                self.errors.append(repr(exc))


def _tamper_detection(journal_path: Path, workdir: Path) -> dict[str, str]:
    """Each tamper scenario applied to a copy must raise its distinct error.

    Returns ``{scenario: detected error kind}`` — the benchmark asserts the
    mapping is exactly tampered/gap/reordered/divergence.
    """
    lines = journal_path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 3:
        raise ValueError("journal too short to exercise tamper scenarios")

    edited_record = json.loads(lines[1])
    edited_record["epsilon"] = edited_record["epsilon"] * 2.0
    scenarios = {
        "edited": lines[:1]
        + [json.dumps(edited_record, sort_keys=True, separators=(",", ":"))]
        + lines[2:],
        "deleted": lines[:1] + lines[2:],
        "swapped": [lines[1], lines[0]] + lines[2:],
    }
    expected = {
        "edited": AuditTamperError,
        "deleted": AuditGapError,
        "swapped": AuditOrderError,
        "diverged": AuditDivergenceError,
    }
    detected: dict[str, str] = {}
    for scenario, content in scenarios.items():
        copy = workdir / f"tampered_{scenario}.jsonl"
        copy.write_text("\n".join(content) + "\n", encoding="utf-8")
        try:
            verify_audit_journal(copy)
            detected[scenario] = "undetected"
        except AuditVerificationError as exc:
            detected[scenario] = (
                exc.kind if isinstance(exc, expected[scenario]) else f"wrong:{exc.kind}"
            )
    # Divergence: an intact journal checked against a ledger that recorded
    # one charge the journal never saw.
    copy = workdir / "tampered_diverged.jsonl"
    shutil.copyfile(journal_path, copy)
    diverged = PrivacyLedger()
    for line in lines:
        record = json.loads(line)
        diverged.charge(
            record["label"],
            PrivacySpec(record["epsilon"], record["delta"]),
            parallel_group=record["group"],
        )
    diverged.charge("bypassed", PrivacySpec(0.25, 1e-9))
    try:
        verify_audit_journal(copy, ledger=diverged)
        detected["diverged"] = "undetected"
    except AuditVerificationError as exc:
        detected["diverged"] = (
            exc.kind if isinstance(exc, expected["diverged"]) else f"wrong:{exc.kind}"
        )
    return detected


def run(
    *,
    n: int = 60,
    domain_shape: dict[str, int] | None = None,
    num_queries: int = 8,
    epsilon: float = 1.0,
    delta: float = 1e-5,
    pmw_rounds: int = 6,
    releases: int = 4,
    overhead_repeats: int = 3,
    scrape_threads: int = 2,
    audit_dir: str | None = None,
    seed: int = 0,
) -> dict:
    """Run PMW with the full observability layer on and audit every contract."""
    if domain_shape is None:
        domain_shape = {"X": 6, "Y": 6}
    query = single_table_query(domain_shape)
    setup_rng = np.random.default_rng(seed)
    instance = random_instance(query, n, rng=setup_rng)
    workload = Workload.random_sign(query, num_queries, rng=setup_rng)
    config = PMWConfig(num_iterations=pmw_rounds)

    def one_pass(pass_seed: int) -> list[int]:
        """One batch of releases; returns the concatenated PMW selections."""
        rng = np.random.default_rng(pass_seed)
        selections: list[int] = []
        for _ in range(releases):
            result = private_multiplicative_weights(
                instance, workload, epsilon, delta, 1.0, rng=rng, config=config
            )
            selections.extend(result.selected_queries)
        return selections

    was_enabled = telemetry.is_enabled()
    workdir = Path(audit_dir) if audit_dir is not None else None
    tmpdir = None
    if workdir is None:
        tmpdir = tempfile.mkdtemp(prefix="e20_observability_")
        workdir = Path(tmpdir)
    workdir.mkdir(parents=True, exist_ok=True)
    journal_path = workdir / "audit.jsonl"

    try:
        # -- baseline: bare run, telemetry fully off ----------------------
        telemetry.disable()
        one_pass(seed + 1)  # warm caches before timing anything
        baseline_selections = one_pass(seed + 1)
        baseline_wall = float("inf")
        for _ in range(overhead_repeats):
            start = time.perf_counter()
            one_pass(seed + 1)
            baseline_wall = min(baseline_wall, time.perf_counter() - start)

        # -- observed: telemetry + ledger + journal + exporter ------------
        telemetry.configure()
        ledger = PrivacyLedger()
        journal = AuditJournal(journal_path, tenant="e20")
        journal.attach(ledger)
        unobserve = telemetry.observe_ledger(ledger)
        # Budget for every charging pass below: the timed repeats plus the
        # scrape pass, (ε, δ) per release, with float-slack padding.
        charging_passes = overhead_repeats + 1
        budget = PrivacySpec(
            epsilon * releases * charging_passes * (1.0 + 1e-9),
            min(delta * releases * charging_passes * (1.0 + 1e-9), 0.5),
        )
        exporter = TelemetryExporter(port=0)
        exporter.register_ledger("e20", ledger, budget)
        exporter.start()
        try:
            observed_wall = float("inf")
            observed_selections: list[int] | None = None
            with use_ledger(ledger):
                for _ in range(overhead_repeats):
                    start = time.perf_counter()
                    selections = one_pass(seed + 1)
                    observed_wall = min(observed_wall, time.perf_counter() - start)
                    observed_selections = selections
                # Consistency pass: scrapers hammer the endpoints while PMW
                # charges keep landing (not part of the overhead timing).
                stop = threading.Event()
                scrapers = [
                    _Scraper(exporter.url(""), stop) for _ in range(scrape_threads)
                ]
                for scraper in scrapers:
                    scraper.start()
                one_pass(seed + 1)
                time.sleep(0.05)  # let every scraper land at least one pass
                stop.set()
                for scraper in scrapers:
                    scraper.join(timeout=10)
            spans_payload = json.load(urllib.request.urlopen(exporter.url("/spans")))
        finally:
            exporter.stop()
            unobserve()
            journal.close()

        # -- verdicts ------------------------------------------------------
        report = verify_audit_journal(journal_path, ledger=ledger, budget=budget)
        ledger_total = ledger.total()
        journal_matches_ledger = (report.epsilon, report.delta) == (
            ledger_total.epsilon,
            ledger_total.delta,
        )
        tamper_detection = _tamper_detection(journal_path, workdir)
        overhead_pct = (
            100.0 * (observed_wall - baseline_wall) / baseline_wall
            if baseline_wall > 0
            else 0.0
        )
        scrapes = {
            "metrics": sum(s.metrics_scrapes for s in scrapers),
            "budget": sum(s.budget_scrapes for s in scrapers),
            "health": sum(s.health_scrapes for s in scrapers),
            "parse_failures": sum(s.parse_failures for s in scrapers),
            "budget_failures": sum(s.budget_failures for s in scrapers),
            "errors": [error for s in scrapers for error in s.errors],
        }
        selections_identical = observed_selections == baseline_selections

        table = ExperimentTable(
            title="E20: observability — audit journal, live exporter, overhead",
            columns=["check", "value"],
        )
        table.add_row(["journal records", report.records])
        table.add_row(["replayed ε (= ledger, bitwise)", report.epsilon])
        table.add_row(["replayed δ (= ledger, bitwise)", report.delta])
        table.add_row(["journal == ledger total", journal_matches_ledger])
        table.add_row(
            ["tamper scenarios rejected",
             sum(v in ("tampered", "gap", "reordered", "divergence")
                 for v in tamper_detection.values())],
        )
        table.add_row(["/metrics scrapes (parse failures)",
                       f"{scrapes['metrics']} ({scrapes['parse_failures']})"])
        table.add_row(["/budget scrapes (consistency failures)",
                       f"{scrapes['budget']} ({scrapes['budget_failures']})"])
        table.add_row(["trace events served by /spans",
                       len(spans_payload.get("traceEvents", []))])
        table.add_row(["baseline wall (s, min of N)", baseline_wall])
        table.add_row(["observed wall (s, min of N)", observed_wall])
        table.add_row(["observability overhead (%)", overhead_pct])
        table.add_row(["PMW selections bitwise identical", selections_identical])

        return {
            "table": table,
            "journal_records": report.records,
            "journal_segments": list(report.segments),
            "replayed_epsilon": report.epsilon,
            "replayed_delta": report.delta,
            "ledger_epsilon": ledger_total.epsilon,
            "ledger_delta": ledger_total.delta,
            "journal_matches_ledger": journal_matches_ledger,
            "tamper_detection": tamper_detection,
            "scrapes": scrapes,
            "span_events": len(spans_payload.get("traceEvents", [])),
            "baseline_wall_seconds": baseline_wall,
            "observed_wall_seconds": observed_wall,
            "overhead_pct": overhead_pct,
            "selections_identical": selections_identical,
        }
    finally:
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)
        if was_enabled:
            telemetry.configure()
        else:
            telemetry.disable()
