"""Tracing spans: nesting, ring bounds, Chrome-trace export, disabled path."""

from __future__ import annotations

import json
import threading

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
    # The summary counts and times every span recorded, dropped ones too.
    summary = ring.summary()["tick"]
    assert summary["count"] == 20
    assert summary["wall_seconds"] >= sum(span["wall_s"] for span in ring.as_dicts()) - 1e-9


def test_summary_keeps_names_whose_spans_were_all_dropped():
    ring = SpanRing(capacity=4)
    for name, count in (("early", 3), ("late", 10)):
        for _ in range(count):
            with ActiveSpan(ring, name, {}):
                pass
    assert {span["name"] for span in ring.as_dicts()} == {"late"}
    summary = ring.summary()
    assert (summary["early"]["count"], summary["late"]["count"]) == (3, 10)
    assert (ring.recorded, ring.dropped) == (13, 9)


def test_spans_recorded_on_many_threads_are_counted_exactly():
    ring = SpanRing(capacity=64)
    threads, per_thread = 4, 500
    start = threading.Barrier(threads)

    def worker():
        start.wait()
        for _ in range(per_thread):
            with ActiveSpan(ring, "tick", {}):
                pass

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert ring.summary()["tick"]["count"] == ring.recorded == threads * per_thread
    assert (len(ring), ring.dropped) == (64, threads * per_thread - 64)
    assert all(span["depth"] == 0 for span in ring.as_dicts())


def test_spans_nest_per_thread():
    def record_worker_span():
        with telemetry.trace("worker"):
            pass

    telemetry.configure()
    with telemetry.trace("main"):
        worker = threading.Thread(target=record_worker_span)
        worker.start()
        worker.join()
    by_name = {span["name"]: span for span in telemetry.span_dicts()}
    # A span opened on another thread is a root there, not a child of the
    # span the main thread has open.
    assert by_name["worker"]["parent"] is None
    assert by_name["worker"]["depth"] == 0
    assert by_name["worker"]["tid"] != by_name["main"]["tid"]


def test_a_span_left_by_an_exception_is_recorded_and_unwound():
    telemetry.configure()
    with pytest.raises(ValueError, match="inside the span"):
        with telemetry.trace("failing", step=1):
            raise ValueError("inside the span")
    with telemetry.trace("next"):
        pass
    by_name = {span["name"]: span for span in telemetry.span_dicts()}
    assert by_name["failing"]["attrs"] == {"step": 1}
    # The failed span left the nesting stack: the next span is a root.
    assert by_name["next"]["parent"] is None
    assert telemetry.snapshot()["stages"]["failing"]["count"] == 1


def test_snapshot_round_trips_through_json():
    telemetry.configure()
    with telemetry.trace("stage", query=3, scale=0.5, mode="dense"):
        pass
    snapshot = telemetry.snapshot()
    assert json.loads(json.dumps(snapshot)) == snapshot
    assert json.loads(json.dumps(telemetry.span_dicts()))[0]["attrs"] == {
        "query": 3,
        "scale": 0.5,
        "mode": "dense",
    }


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
    stages = telemetry.snapshot()["stages"]
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
    assert payload == {
        "traceEvents": [],
        "displayTimeUnit": "ms",
        "metadata": {"recorded": 0, "dropped": 0, "capacity": 4},
    }


def test_chrome_trace_metadata_counts_the_spans_the_ring_dropped():
    ring = SpanRing(capacity=4)
    for i in range(10):
        with ActiveSpan(ring, "tick", {"i": i}):
            pass
    payload = chrome_trace_events(ring)
    assert [event["args"]["i"] for event in payload["traceEvents"]] == [6, 7, 8, 9]
    assert payload["metadata"] == {"recorded": 10, "dropped": 6, "capacity": 4}


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
    assert telemetry.snapshot() == {"enabled": False}


def test_enabling_after_disable_starts_an_empty_ring():
    telemetry.configure()
    with telemetry.trace("span"):
        pass
    telemetry.disable()
    telemetry.configure()
    assert telemetry.is_enabled()
    assert telemetry.span_dicts() == []
    assert telemetry.snapshot()["stages"] == {}


def test_configure_is_idempotent():
    telemetry.configure()
    with telemetry.trace("keep"):
        pass
    telemetry.configure()  # already on: the ring survives
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
