"""The live scrape exporter: endpoints, edge cases, lifecycle.

The ISSUE-mandated edge cases all live here: scraping before any metric
exists, scraping while telemetry is disabled (the null registry), starting
on a port that is already taken (a clean, synchronous error), and a clean
shutdown that leaves no server thread behind.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro import telemetry
from repro.mechanisms.ledger import PrivacyLedger
from repro.mechanisms.spec import PrivacySpec
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
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0.0

    def test_budget_endpoint(self, exporter):
        ledger = PrivacyLedger()
        ledger.charge("pmw.total", PrivacySpec(0.5, 1e-6))
        exporter.register_ledger("tenant-a", ledger, budget=PrivacySpec(2.0, 1e-4))
        _status, _headers, body = _get(exporter.url() + "/budget")
        tenants = json.loads(body)["tenants"]
        assert tenants["tenant-a"]["charges"] == 1
        assert tenants["tenant-a"]["spent"]["epsilon"] == 0.5
        assert tenants["tenant-a"]["remaining"]["epsilon"] == 1.5
        assert tenants["tenant-a"]["exhausted"] is False

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
