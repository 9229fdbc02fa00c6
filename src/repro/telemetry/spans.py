"""Nestable tracing spans and the bounded in-memory span ring.

A span measures one stage of work — wall time by ``perf_counter_ns``, CPU
time by ``thread_time_ns`` — and records its attributes plus its position in
the per-thread nesting stack (parent id and depth), so exports reconstruct
the call tree: a PMW round nests inside the PMW run, a mechanism invocation
inside its round.

Finished spans land in a :class:`SpanRing`, a bounded ring that keeps the
most recent ``capacity`` spans and counts what it dropped — tracing a long
run can never grow memory without bound — while it sums every span's
count, wall and CPU time by name, so its summary stays exact after drops.
The ring exports as plain JSON dictionaries and as a Chrome-trace file
(the ``chrome://tracing`` / Perfetto ``traceEvents`` format, with the drop
count in its ``metadata``) via :func:`chrome_trace_events`.

When telemetry is disabled, :func:`repro.telemetry.trace` returns the shared
:data:`NULL_SPAN` singleton instead of an :class:`ActiveSpan` — entering and
exiting it does nothing, which is what keeps the disabled hot path a true
no-op.

Standard library only, like the rest of ``repro.telemetry``.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque


class SpanRecord:
    """One finished span: timings, attributes, and tree position."""

    __slots__ = (
        "span_id",
        "parent_id",
        "depth",
        "name",
        "attrs",
        "start_ns",
        "duration_ns",
        "cpu_ns",
        "pid",
        "tid",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        depth: int,
        name: str,
        attrs: dict,
        start_ns: int,
        duration_ns: int,
        cpu_ns: int,
        pid: int,
        tid: int,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.name = name
        self.attrs = attrs
        self.start_ns = start_ns
        self.duration_ns = duration_ns
        self.cpu_ns = cpu_ns
        self.pid = pid
        self.tid = tid

    def to_dict(self, epoch_ns: int) -> dict:
        """A JSON-able dump; times are seconds relative to the ring epoch."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "attrs": self.attrs,
            "start_s": (self.start_ns - epoch_ns) / 1e9,
            "wall_s": self.duration_ns / 1e9,
            "cpu_s": self.cpu_ns / 1e9,
            "pid": self.pid,
            "tid": self.tid,
        }


class SpanRing:
    """A bounded ring of finished spans.

    Keeps the newest ``capacity`` records; older ones fall off the front and
    are only counted (``dropped``), so the ring is safe to leave attached to
    arbitrarily long runs.  Per span name it keeps running totals of every
    span recorded — ``[count, wall ns, CPU ns]`` — which :meth:`summary`
    reports.  Thread-safe: spans finish on whatever thread ran them.
    """

    def __init__(self, capacity: int = 16384) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.epoch_ns = time.perf_counter_ns()
        self._lock = threading.Lock()
        self._spans: deque[SpanRecord] = deque(maxlen=self.capacity)
        self._recorded = 0
        self._totals: dict[str, list[int]] = {}
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def record(self, span: SpanRecord) -> None:
        with self._lock:
            self._spans.append(span)
            self._recorded += 1
            totals = self._totals.get(span.name)
            if totals is None:
                totals = self._totals[span.name] = [0, 0, 0]
            totals[0] += 1
            totals[1] += span.duration_ns
            totals[2] += span.cpu_ns

    @property
    def recorded(self) -> int:
        """Total spans ever recorded (including any since dropped)."""
        return self._recorded

    @property
    def dropped(self) -> int:
        """Spans that fell off the front of the ring."""
        with self._lock:
            return self._recorded - len(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def spans(self) -> list[SpanRecord]:
        """The retained spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def as_dicts(self) -> list[dict]:
        """The retained spans as JSON-able dictionaries (oldest first)."""
        epoch = self.epoch_ns
        return [span.to_dict(epoch) for span in self.spans()]

    def summary(self) -> dict:
        """Every span recorded, aggregated by name: count plus wall/CPU totals.

        This is the stage-level timing breakdown snapshots report — one line
        per span name, not per event — and it counts the spans the ring has
        dropped too.
        """
        with self._lock:
            totals = {name: tuple(values) for name, values in self._totals.items()}
        return {
            name: {
                "count": count,
                "wall_seconds": round(wall_ns / 1e9, 9),
                "cpu_seconds": round(cpu_ns / 1e9, 9),
            }
            for name, (count, wall_ns, cpu_ns) in totals.items()
        }


def chrome_trace_events(ring: SpanRing) -> dict:
    """The ring as a Chrome-trace (``chrome://tracing`` / Perfetto) object.

    Spans become complete ("ph": "X") events with microsecond timestamps
    relative to the ring epoch; attributes and the CPU time ride along in
    ``args``.  Nesting needs no explicit encoding — the viewers stack
    events of one pid/tid by time containment, which is exactly how the
    spans nested when they ran.  The top-level ``metadata`` says how many
    spans were recorded, how many the ring dropped (the oldest, which the
    events lack) and its capacity.
    """
    with ring._lock:  # the events and the counts of one instant
        spans = list(ring._spans)
        recorded = ring._recorded
    events = []
    epoch = ring.epoch_ns
    for span in spans:
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "ts": (span.start_ns - epoch) / 1e3,
                "dur": span.duration_ns / 1e3,
                "pid": span.pid,
                "tid": span.tid,
                "args": {**span.attrs, "cpu_ms": span.cpu_ns / 1e6},
            }
        )
    metadata = {
        "recorded": recorded,
        "dropped": recorded - len(spans),
        "capacity": ring.capacity,
    }
    return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}


# ---------------------------------------------------------------------- #
# the active-span context manager and per-thread nesting stack
# ---------------------------------------------------------------------- #
_THREAD_STACK = threading.local()


def _stack() -> list:
    stack = getattr(_THREAD_STACK, "stack", None)
    if stack is None:
        stack = _THREAD_STACK.stack = []
    return stack


class ActiveSpan:
    """A running span: a context manager that records into a ring on exit.

    Timing is one ``perf_counter_ns`` pair (wall) plus one
    ``thread_time_ns`` pair (CPU).  Extra attributes discovered mid-span —
    the query a PMW round selected, say — are attached with :meth:`set`.
    """

    __slots__ = ("_ring", "_name", "_attrs", "_span_id", "_parent_id", "_start_ns", "_cpu_ns")

    def __init__(self, ring: SpanRing, name: str, attrs: dict) -> None:
        self._ring = ring
        self._name = name
        self._attrs = attrs
        self._span_id = ring.next_id()
        self._parent_id: int | None = None
        self._start_ns = 0
        self._cpu_ns = 0

    def set(self, **attrs) -> "ActiveSpan":
        """Attach attributes to the running span (chainable)."""
        self._attrs.update(attrs)
        return self

    def __enter__(self) -> "ActiveSpan":
        stack = _stack()
        self._parent_id = stack[-1]._span_id if stack else None
        stack.append(self)
        self._cpu_ns = time.thread_time_ns()
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = time.perf_counter_ns()
        cpu_end_ns = time.thread_time_ns()
        stack = _stack()
        depth = len(stack) - 1
        if stack and stack[-1] is self:
            stack.pop()
        else:  # unbalanced exit (generator teardown, ...) — do not corrupt peers
            try:
                stack.remove(self)
            except ValueError:
                pass
        self._ring.record(
            SpanRecord(
                span_id=self._span_id,
                parent_id=self._parent_id,
                depth=max(depth, 0),
                name=self._name,
                attrs=self._attrs,
                start_ns=self._start_ns,
                duration_ns=end_ns - self._start_ns,
                cpu_ns=cpu_end_ns - self._cpu_ns,
                pid=os.getpid(),
                tid=threading.get_ident(),
            )
        )
        return False


class NullSpan:
    """The disabled-path span: a shared, do-nothing context manager."""

    __slots__ = ()

    def set(self, **attrs) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = NullSpan()
