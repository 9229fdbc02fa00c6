"""The live scrape exporter: endpoints, edge cases, lifecycle.

The edge cases all live here: scraping before any metric exists, scraping
while telemetry is disabled (the null registry), starting on a port that is
already taken (a clean, synchronous error), a clean shutdown that leaves no
server thread behind, and scrapes that land while PMW runs are charging.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import telemetry
from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.datagen.random_instances import random_instance
from repro.mechanisms.ledger import PrivacyLedger, use_ledger
from repro.mechanisms.spec import PrivacySpec
from repro.queries.workload import Workload
from repro.relational.hypergraph import single_table_query
from repro.telemetry.exporter import (
    PROMETHEUS_CONTENT_TYPE,
    TelemetryExporter,
    prometheus_exposition,
)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, dict(response.headers), response.read().decode("utf-8")


@pytest.fixture()
def exporter():
    exporter = TelemetryExporter(port=0)
    exporter.start()
    yield exporter
    exporter.stop()


class TestEndpoints:
    def test_metrics_before_any_metric_recorded(self, exporter):
        telemetry.configure(enabled=True)
        status, headers, body = _get(exporter.url() + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert "no metrics recorded" in body

    def test_metrics_while_disabled_serves_null_registry(self, exporter):
        telemetry.disable()
        status, headers, body = _get(exporter.url() + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert "no metrics recorded" in body

    def test_metrics_after_recording(self, exporter):
        telemetry.configure(enabled=True)
        telemetry.registry().counter("pmw.rounds", experiment="e13").add()
        status, _headers, body = _get(exporter.url() + "/metrics")
        assert status == 200
        assert "# TYPE pmw_rounds counter" in body
        assert 'pmw_rounds{experiment="e13"} 1.0' in body

    def test_healthz(self, exporter):
        status, _headers, body = _get(exporter.url() + "/healthz")
        assert status == 200
        health = json.loads(body)
        assert set(health) == {"status", "telemetry_enabled", "uptime_seconds"}
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0.0

    def test_budget_endpoint(self, exporter):
        assert json.loads(_get(exporter.url() + "/budget")[2]) == {}
        ledger = PrivacyLedger()
        ledger.charge("pmw.total", PrivacySpec(0.5, 1e-6))
        exporter.register_ledger(ledger, budget=PrivacySpec(2.0, 1e-4))
        _status, _headers, body = _get(exporter.url() + "/budget")
        budget = json.loads(body)
        assert budget["charges"] == 1
        assert budget["spent"]["epsilon"] == 0.5
        assert budget["remaining"]["epsilon"] == 1.5
        assert budget["exhausted"] is False

    def test_spans_download(self, exporter):
        telemetry.configure(enabled=True)
        with telemetry.trace("stage.one"):
            pass
        status, headers, body = _get(exporter.url() + "/spans")
        assert status == 200
        assert "attachment" in headers.get("Content-Disposition", "")
        trace = json.loads(body)
        assert any(event.get("name") == "stage.one" for event in trace["traceEvents"])

    def test_unknown_path_is_404(self, exporter):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(exporter.url() + "/nope")
        assert err.value.code == 404


#: One Prometheus text-exposition sample: name, optional label set, value.
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? "
    r"([-+]?\d+(\.\d*)?([eE][-+]?\d+)?|[-+]Inf|NaN)$"
)


class TestLiveScrapes:
    def test_scrapes_while_pmw_charges_parse_and_spend_stays_in_budget(self, exporter):
        """Scraped mid-run, every ``/metrics`` line parses, and ``/budget``
        spend never falls and never passes the declared budget."""
        query = single_table_query({"X": 6, "Y": 6})
        rng = np.random.default_rng(0)
        instance = random_instance(query, 60, rng=rng)
        workload = Workload.random_sign(query, 8, rng=rng)
        releases = 30
        budget = PrivacySpec(releases * (1 + 1e-9), releases * 1e-5 * (1 + 1e-9))
        telemetry.configure()
        ledger = PrivacyLedger()
        telemetry.observe_ledger(ledger)
        exporter.register_ledger(ledger, budget)
        stop = threading.Event()
        spends: list[tuple[float, float]] = [(0.0, 0.0)]
        failures: list[str] = []

        def scrape() -> None:
            try:
                done = False
                while not done:  # at least one scrape, however slow the start
                    done = stop.is_set()
                    body = _get(exporter.url("/metrics"))[2]
                    failures.extend(
                        line for line in body.splitlines()
                        if not (line.startswith("#") or _SAMPLE_LINE.match(line))
                    )
                    spent = json.loads(_get(exporter.url("/budget"))[2])["spent"]
                    spends.append((spent["epsilon"], spent["delta"]))
            except Exception as exc:  # noqa: BLE001 - reported by the test thread
                failures.append(repr(exc))

        scraper = threading.Thread(target=scrape, daemon=True)
        scraper.start()
        with use_ledger(ledger):
            for _ in range(releases):
                private_multiplicative_weights(
                    instance, workload, 1.0, 1e-5, 1.0, rng=rng,
                    config=PMWConfig(num_iterations=6),
                )
        stop.set()
        scraper.join(timeout=10)
        assert not scraper.is_alive()

        assert not failures, failures[:5]
        for (last_eps, last_dlt), (eps, dlt) in zip(spends, spends[1:]):
            assert last_eps <= eps <= budget.epsilon
            assert last_dlt <= dlt <= budget.delta
        final = json.loads(_get(exporter.url("/budget"))[2])
        assert final["charges"] == len(ledger) == 2 * releases
        total = ledger.total()
        assert final["spent"] == {"epsilon": total.epsilon, "delta": total.delta}


class TestLifecycle:
    def test_port_in_use_raises_synchronously(self):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            taken_port = blocker.getsockname()[1]
            exporter = TelemetryExporter(port=taken_port)
            with pytest.raises(OSError):
                exporter.start()
            assert not exporter.running

    def test_stop_leaves_no_thread(self):
        exporter = TelemetryExporter(port=0)
        exporter.start()
        port = exporter.port
        name = f"telemetry-exporter:{port}"
        assert any(thread.name == name for thread in threading.enumerate())
        exporter.stop()
        assert not exporter.running
        assert all(thread.name != name for thread in threading.enumerate())
        # The port is free again for the next exporter.
        rebound = TelemetryExporter(port=port)
        rebound.start()
        rebound.stop()

    def test_stop_is_idempotent(self):
        exporter = TelemetryExporter(port=0)
        exporter.start()
        exporter.stop()
        exporter.stop()
        assert not exporter.running

    def test_context_manager(self):
        with TelemetryExporter(port=0) as exporter:
            assert exporter.running
            status, _headers, _body = _get(exporter.url() + "/healthz")
            assert status == 200
        assert not exporter.running


class TestExposition:
    def test_empty_snapshot(self):
        assert prometheus_exposition({}) == "# no metrics recorded\n"

    def test_name_sanitisation_and_label_escaping(self):
        telemetry.configure(enabled=True)
        telemetry.registry().counter("pmw.round-time", path='a"b\\c\nd').add()
        body = prometheus_exposition(telemetry.registry().snapshot())
        assert "# TYPE pmw_round_time counter" in body
        assert 'path="a\\"b\\\\c\\nd"' in body

    def test_gauge_family_groups_its_label_sets_under_one_type_line(self):
        telemetry.configure(enabled=True)
        telemetry.registry().gauge("queue.depth", shard="a").set(3)
        telemetry.registry().gauge("queue.depth", shard="b").set(5)
        telemetry.registry().counter("pmw.rounds").add()
        body = prometheus_exposition(telemetry.registry().snapshot())
        assert body == (
            "# TYPE pmw_rounds counter\n"
            "pmw_rounds 1.0\n"
            "# TYPE queue_depth gauge\n"
            'queue_depth{shard="a"} 3.0\n'
            'queue_depth{shard="b"} 5.0\n'
        )
