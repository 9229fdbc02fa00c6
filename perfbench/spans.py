"""In-memory spans for the traced run, and the wrappers that record them.

A :class:`Tracer` keeps every span (name, start, end, parent, release id) in
memory; nothing is written until :func:`write_chrome_trace` runs at exit.
:class:`Wrappers` replaces callables on their owning object and puts every
original back on :meth:`Wrappers.uninstall`.  ``from … import`` binds a name
in the caller's namespace, so a function is wrapped on the module that calls
it, not on the module that defines it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator


@dataclass
class Span:
    """One timed call: ``parent`` is the enclosing span's id, ``None`` at the root."""

    span_id: int
    name: str
    parent: int | None
    release: str
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and per-release counters in memory.

    ``release`` tags every span and count opened while it is set, so the
    spans of one release can be summed apart from the others.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: list[int] = []
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.release = ""

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, parent, self.release, self._clock())
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = self._clock()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.release, name)] += amount


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children[span.span_id], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.span_id] = span.duration - covered
    return result


def totals_by_name(spans: list[Span], release: str) -> dict[str, tuple[float, int]]:
    """``name -> (summed self time, span count)`` over the spans of one release."""
    own = [span for span in spans if span.release == release]
    selfs = self_times(own)
    totals: dict[str, tuple[float, int]] = {}
    for span in own:
        seconds, calls = totals.get(span.name, (0.0, 0))
        totals[span.name] = (seconds + selfs[span.span_id], calls + 1)
    return totals


def traced(
    tracer: Tracer,
    name: str,
    function: Callable,
    after: Callable | None = None,
) -> Callable:
    """``function`` run inside a span; ``after(args, kwargs, result)`` runs once it returns."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = function(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def traced_iterator(tracer: Tracer, name: str, function: Callable) -> Callable:
    """Like :func:`traced` for a function returning an iterator: each step is a span.

    A generator does its work while the caller iterates, so a span around
    the call alone would charge that work to the caller.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            iterator = iter(function(*args, **kwargs))

        def steps():
            while True:
                with tracer.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        return steps()

    return wrapper


class Wrappers:
    """Attributes replaced by wrappers, and the originals to put back."""

    def __init__(self):
        self._installed: list[tuple[object, str, object, bool]] = []

    def replace(self, owner: object, attribute: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attribute`` to ``make(original)``."""
        original = getattr(owner, attribute)
        own = attribute in vars(owner)
        setattr(owner, attribute, make(original))
        self._installed.append((owner, attribute, original, own))

    def uninstall(self) -> None:
        """Restore every replaced attribute, newest first.

        An attribute the owner only inherited (a method looked up on the
        class) is deleted again rather than pinned on the instance.
        """
        while self._installed:
            owner, attribute, original, own = self._installed.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def write_chrome_trace(tracer: Tracer, path: Path, metadata: dict) -> None:
    """Write the spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
    origin = min((span.start for span in tracer.spans), default=0.0)
    events = [
        {
            "name": span.name,
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "args": {"id": span.span_id, "parent": span.parent, "release": span.release},
        }
        for span in tracer.spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "metadata": metadata}))
