"""Runtime telemetry: metrics and tracing spans.

A zero-dependency (standard-library-only) instrumentation layer for the
evaluation stack.  One module-level state object per process holds a
:class:`~repro.telemetry.metrics.MetricsRegistry` and a bounded
:class:`~repro.telemetry.spans.SpanRing`; everything else is free functions
against it:

>>> from repro import telemetry
>>> telemetry.configure()                      # turn recording on
>>> with telemetry.trace("pmw.round", query=3):
...     telemetry.registry().counter("pmw.rounds").add()
>>> telemetry.snapshot()["metrics"]["pmw.rounds"]
1.0
>>> telemetry.export_chrome_trace("trace.json")  # doctest: +SKIP

Design contract (why instrumented hot paths stay hot):

- **Disabled is the default and a true no-op.**  ``trace`` returns a shared
  null span and ``registry()`` a :class:`~repro.telemetry.metrics.NullRegistry`
  whose instruments are shared do-nothing singletons; the disabled cost of an
  instrumented call site is an attribute check plus an empty method call.
- **Enabled stays cheap.**  Metric updates are lock-free single mutations;
  a span costs one ``perf_counter_ns`` pair plus one ``thread_time_ns``
  pair for CPU attribution; finished spans land in a bounded ring, so
  memory cannot grow with run length.

The instrumentation never touches random-number state, so enabling or
disabling telemetry cannot change mechanism outputs or PMW selections —
the test suite asserts bitwise-identical selections either way.
"""

from __future__ import annotations

import json
import time

from repro.telemetry.metrics import MetricsRegistry, NullRegistry
from repro.telemetry.spans import (
    NULL_SPAN,
    ActiveSpan,
    NullSpan,
    SpanRing,
    chrome_trace_events,
)

__all__ = [
    "configure",
    "disable",
    "reset",
    "is_enabled",
    "registry",
    "trace",
    "snapshot",
    "stage_summary",
    "span_dicts",
    "chrome_trace",
    "export_chrome_trace",
    "observe_ledger",
    "MetricsRegistry",
    "NullRegistry",
    "SpanRing",
]

_NULL_REGISTRY = NullRegistry()


class _State:
    """The per-process telemetry state (one instance, module-level)."""

    __slots__ = ("enabled", "registry", "ring")

    def __init__(self) -> None:
        self.enabled = False
        self.registry: MetricsRegistry | NullRegistry = _NULL_REGISTRY
        self.ring: SpanRing | None = None


_STATE = _State()


def configure(enabled: bool = True) -> None:
    """Turn telemetry on (or off) for this process.

    Enabling is idempotent: an already-enabled state keeps its registry and
    span ring (so nested enables never lose data).  ``configure(enabled=False)``
    is :func:`disable`.
    """
    if not enabled:
        disable()
        return
    if not _STATE.enabled or not isinstance(_STATE.registry, MetricsRegistry):
        _STATE.registry = MetricsRegistry()
        _STATE.ring = SpanRing()
    _STATE.enabled = True


def disable() -> None:
    """Turn telemetry off; the null registry takes over immediately."""
    _STATE.enabled = False
    _STATE.registry = _NULL_REGISTRY
    _STATE.ring = None


def reset() -> None:
    """Zero all metrics and empty the span ring, keeping telemetry enabled.

    The per-run boundary: call this between runs so every snapshot
    attributes to exactly one run.  A no-op while disabled.
    """
    if _STATE.enabled:
        _STATE.registry.clear()
        if _STATE.ring is not None:
            _STATE.ring.clear()


def is_enabled() -> bool:
    """Whether this process is currently recording telemetry."""
    return _STATE.enabled


def registry() -> MetricsRegistry | NullRegistry:
    """The live metrics registry (the shared null registry while disabled)."""
    return _STATE.registry


def trace(name: str, **attrs):
    """A context manager timing one named, nestable span.

    ::

        with telemetry.trace("pmw.round", query=i) as span:
            ...
            span.set(selected=query_index)

    Spans nest per thread — the parent is whatever span is open on the
    current thread — and record wall time, CPU time, and attributes into
    the bounded ring on exit.  While telemetry is disabled this returns a
    shared do-nothing span, so tracing a hot path costs one enabled-check.
    """
    if not _STATE.enabled:
        return NULL_SPAN
    return ActiveSpan(_STATE.ring, name, attrs)


def snapshot() -> dict:
    """A JSON-able snapshot of everything recorded so far.

    ``metrics`` is the flat human-readable view (``name{labels}`` keys);
    ``spans`` reports ring occupancy; ``stages`` is the per-span-name
    timing aggregate (:func:`stage_summary`).
    """
    if not _STATE.enabled:
        return {"enabled": False}
    ring = _STATE.ring
    return {
        "enabled": True,
        "unix_time": time.time(),
        "metrics": _STATE.registry.flat(),
        "spans": {
            "recorded": ring.recorded if ring else 0,
            "retained": len(ring) if ring else 0,
            "dropped": ring.dropped if ring else 0,
            "capacity": ring.capacity if ring else 0,
        },
        "stages": stage_summary(),
    }


def stage_summary() -> dict:
    """Retained spans aggregated by name: count, wall seconds, CPU seconds."""
    if not _STATE.enabled or _STATE.ring is None:
        return {}
    return _STATE.ring.summary()


def span_dicts() -> list[dict]:
    """The retained spans as JSON-able dictionaries (oldest first)."""
    if not _STATE.enabled or _STATE.ring is None:
        return []
    return _STATE.ring.as_dicts()


def chrome_trace() -> dict:
    """The span ring as a Chrome-trace (``traceEvents``) payload.

    An empty-but-valid trace object while telemetry is disabled, so scrape
    endpoints can serve it unconditionally.
    """
    if not _STATE.enabled or _STATE.ring is None:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    return chrome_trace_events(_STATE.ring)


def export_chrome_trace(path) -> str:
    """Write the span ring as a Chrome-trace file and return its path.

    The file loads directly in ``chrome://tracing`` or
    https://ui.perfetto.dev; nested spans stack by time containment.
    Raises while telemetry is disabled (there is nothing to export).
    """
    if not _STATE.enabled or _STATE.ring is None:
        raise RuntimeError("telemetry is disabled; call telemetry.configure() first")
    payload = chrome_trace_events(_STATE.ring)
    path = str(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


def observe_ledger(ledger):
    """Wire a :class:`~repro.mechanisms.ledger.PrivacyLedger` into telemetry.

    Every charge increments ``privacy.charges{label=...}`` and adds the
    spec's budget to the ``privacy.epsilon_spent`` / ``privacy.delta_spent``
    counters.  The observer reads the live state per event, so charges made
    while telemetry is disabled cost one boolean check and record nothing.
    Returns the ledger's unsubscribe callable.
    """

    def _record(entry) -> None:
        if not _STATE.enabled:
            return
        reg = _STATE.registry
        reg.counter("privacy.charges", label=entry.label).add()
        reg.counter("privacy.epsilon_spent").add(entry.spec.epsilon)
        reg.counter("privacy.delta_spent").add(entry.spec.delta)

    return ledger.subscribe(_record)
