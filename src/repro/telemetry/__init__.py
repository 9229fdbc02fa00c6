"""Runtime telemetry: tracing spans.

A zero-dependency (standard-library-only) instrumentation layer for the
evaluation stack.  While recording is on, the process holds one bounded
:class:`~repro.telemetry.spans.SpanRing`; everything else is free functions
against it:

>>> from repro import telemetry
>>> telemetry.configure()                      # turn recording on
>>> with telemetry.trace("pmw.round", round=3):
...     pass
>>> telemetry.snapshot()["stages"]["pmw.round"]["count"]
1
>>> telemetry.export_chrome_trace("trace.json")  # doctest: +SKIP

Spans are the only record: how often something ran is the count of its
span name in :func:`snapshot`'s ``stages``, and what a run decided rides on
its span as attributes.  Where the privacy budget went is the
:class:`~repro.mechanisms.ledger.PrivacyLedger`'s record, not telemetry's.

Design contract (why instrumented hot paths stay hot):

- **Disabled is the default and a true no-op.**  ``trace`` returns a shared
  null span; the disabled cost of an instrumented call site is one global
  read plus entering and leaving an empty context manager.
- **Enabled stays cheap.**  A span costs one ``perf_counter_ns`` pair plus
  one ``thread_time_ns`` pair for CPU attribution; finished spans land in a
  bounded ring, so memory cannot grow with run length, while the per-name
  counts and times stay exact.

The instrumentation never touches random-number state, so enabling or
disabling telemetry cannot change mechanism outputs or PMW selections —
the test suite asserts bitwise-identical selections either way.
"""

from __future__ import annotations

import json
import time

from repro.telemetry.spans import NULL_SPAN, ActiveSpan, SpanRing, chrome_trace_events

__all__ = [
    "configure",
    "disable",
    "is_enabled",
    "trace",
    "snapshot",
    "span_dicts",
    "export_chrome_trace",
]

#: The recording ring while telemetry is on, ``None`` while it is off.
_RING: SpanRing | None = None


def configure() -> None:
    """Turn telemetry on for this process.

    Idempotent: an already-enabled process keeps its span ring (so nested
    enables never lose data), while enabling after :func:`disable` starts
    an empty one.
    """
    global _RING
    if _RING is None:
        _RING = SpanRing()


def disable() -> None:
    """Turn telemetry off and drop what was recorded."""
    global _RING
    _RING = None


def is_enabled() -> bool:
    """Whether this process is currently recording telemetry."""
    return _RING is not None


def trace(name: str, **attrs):
    """A context manager timing one named, nestable span.

    ::

        with telemetry.trace("pmw.round", round=i) as span:
            ...
            span.set(selected=query_index)

    Spans nest per thread — the parent is whatever span is open on the
    current thread — and record wall time, CPU time, and attributes into
    the bounded ring on exit.  While telemetry is disabled this returns a
    shared do-nothing span, so tracing a hot path costs one enabled-check.
    """
    ring = _RING
    if ring is None:
        return NULL_SPAN
    return ActiveSpan(ring, name, attrs)


def snapshot() -> dict:
    """A JSON-able snapshot of everything recorded so far.

    ``spans`` reports ring occupancy; ``stages`` aggregates every span
    recorded since telemetry was turned on, by name: count, wall seconds
    and CPU seconds, exact however many spans the ring has dropped.
    """
    ring = _RING
    if ring is None:
        return {"enabled": False}
    return {
        "enabled": True,
        "unix_time": time.time(),
        "spans": {
            "recorded": ring.recorded,
            "retained": len(ring),
            "dropped": ring.dropped,
            "capacity": ring.capacity,
        },
        "stages": ring.summary(),
    }


def span_dicts() -> list[dict]:
    """The retained spans as JSON-able dictionaries (oldest first)."""
    ring = _RING
    return [] if ring is None else ring.as_dicts()


def export_chrome_trace(path) -> str:
    """Write the span ring as a Chrome-trace file and return its path.

    The file loads directly in ``chrome://tracing`` or
    https://ui.perfetto.dev; nested spans stack by time containment.
    Raises while telemetry is disabled (there is nothing to export).
    """
    ring = _RING
    if ring is None:
        raise RuntimeError("telemetry is disabled; call telemetry.configure() first")
    payload = chrome_trace_events(ring)
    path = str(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path
