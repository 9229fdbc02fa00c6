"""Tracing spans: nesting, ring bounds, Chrome-trace export, disabled path."""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.telemetry.spans import NULL_SPAN, ActiveSpan, SpanRing, chrome_trace_events


def test_spans_nest_and_record_parent_links():
    telemetry.configure()
    with telemetry.trace("outer", run=1) as outer:
        with telemetry.trace("inner") as inner:
            with telemetry.trace("innermost"):
                pass
        outer.set(finished=True)
    spans = telemetry.span_dicts()
    by_name = {span["name"]: span for span in spans}
    assert set(by_name) == {"outer", "inner", "innermost"}
    assert by_name["outer"]["parent"] is None
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["innermost"]["parent"] == by_name["inner"]["id"]
    assert by_name["outer"]["depth"] == 0
    assert by_name["inner"]["depth"] == 1
    assert by_name["innermost"]["depth"] == 2
    assert by_name["outer"]["attrs"] == {"run": 1, "finished": True}
    for span in spans:
        assert span["wall_s"] >= 0.0
        assert span["cpu_s"] >= 0.0


def test_sibling_spans_share_a_parent():
    telemetry.configure()
    with telemetry.trace("run"):
        for i in range(3):
            with telemetry.trace("round", i=i):
                pass
    spans = telemetry.span_dicts()
    run = next(span for span in spans if span["name"] == "run")
    rounds = [span for span in spans if span["name"] == "round"]
    assert len(rounds) == 3
    assert all(span["parent"] == run["id"] for span in rounds)


def test_ring_bounds_and_drop_accounting():
    ring = SpanRing(capacity=8)
    for i in range(20):
        with ActiveSpan(ring, "tick", {"i": i}):
            pass
    assert (ring.recorded, len(ring), ring.dropped, ring.capacity) == (20, 8, 12, 8)
    # The ring keeps the *newest* spans.
    kept = [span["attrs"]["i"] for span in ring.as_dicts()]
    assert kept == list(range(12, 20))


def test_ring_rejects_non_positive_capacity():
    with pytest.raises(ValueError):
        SpanRing(capacity=0)


def test_stage_summary_aggregates_by_name():
    telemetry.configure()
    for _ in range(4):
        with telemetry.trace("stage.a"):
            pass
    with telemetry.trace("stage.b"):
        pass
    stages = telemetry.stage_summary()
    assert stages["stage.a"]["count"] == 4
    assert stages["stage.b"]["count"] == 1
    assert stages["stage.a"]["wall_seconds"] >= 0.0
    assert stages["stage.a"]["cpu_seconds"] >= 0.0


def test_chrome_trace_export_round_trips(tmp_path):
    telemetry.configure()
    with telemetry.trace("outer"):
        with telemetry.trace("inner", query=5):
            pass
    path = tmp_path / "trace.json"
    written = telemetry.export_chrome_trace(path)
    assert written == str(path)
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    assert {event["name"] for event in events} == {"outer", "inner"}
    outer = next(event for event in events if event["name"] == "outer")
    inner = next(event for event in events if event["name"] == "inner")
    for event in events:
        assert event["ph"] == "X"
        assert event["dur"] >= 0.0
        assert "cpu_ms" in event["args"]
    # Nesting in the viewer is time containment: inner starts at or after
    # outer and ends at or before outer's end.
    assert inner["ts"] >= outer["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6
    assert inner["args"]["query"] == 5


def test_chrome_trace_events_direct():
    ring = SpanRing(capacity=4)
    payload = chrome_trace_events(ring)
    assert payload == {"traceEvents": [], "displayTimeUnit": "ms"}


def test_export_raises_while_disabled(tmp_path):
    with pytest.raises(RuntimeError):
        telemetry.export_chrome_trace(tmp_path / "trace.json")


def test_disabled_trace_returns_shared_null_span():
    assert not telemetry.is_enabled()
    span = telemetry.trace("anything", x=1)
    assert span is NULL_SPAN
    assert telemetry.trace("other") is span
    with span as entered:
        assert entered is span
        entered.set(y=2)  # accepted, recorded nowhere
    assert telemetry.span_dicts() == []
    assert telemetry.stage_summary() == {}
    assert telemetry.snapshot() == {"enabled": False}


def test_reset_keeps_enabled_but_drops_data():
    telemetry.configure()
    with telemetry.trace("span"):
        pass
    telemetry.registry().counter("n").add()
    telemetry.reset()
    assert telemetry.is_enabled()
    assert telemetry.span_dicts() == []
    assert telemetry.registry().flat() == {}


def test_configure_is_idempotent():
    telemetry.configure()
    with telemetry.trace("keep"):
        pass
    telemetry.configure()  # already on: the registry and ring survive
    assert len(telemetry.span_dicts()) == 1
    stats = telemetry.snapshot()["spans"]
    assert stats == {"recorded": 1, "retained": 1, "dropped": 0, "capacity": 16384}


def test_unbalanced_exit_does_not_corrupt_peers():
    # A generator holding a span can be torn down out of order; sibling
    # spans opened later must keep their own stack entries intact.
    telemetry.configure()

    def traced_gen():
        with telemetry.trace("gen"):
            yield 1
            yield 2

    gen = traced_gen()
    next(gen)
    with telemetry.trace("peer"):
        gen.close()  # exits "gen" while "peer" is on top of the stack
    names = [span["name"] for span in telemetry.span_dicts()]
    assert names.count("peer") == 1
    assert names.count("gen") == 1
