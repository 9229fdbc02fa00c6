"""Counters, gauges, and histogram timers: the metrics half of telemetry.

A :class:`MetricsRegistry` hands out *instruments* — :class:`Counter`,
:class:`Gauge`, and :class:`Distribution` — identified by ``(name, labels)``.
The fast path is lock-free: instrument lookup is a plain dict ``get`` (the
registry lock is only taken to create a missing instrument) and every update
is a single attribute mutation, so leaving the registry enabled costs a few
dict/attribute operations per event.  A timer wraps a distribution in a
context manager that takes exactly one ``perf_counter_ns`` pair per timed
block.

When telemetry is disabled the module-level facade hands out a
:class:`NullRegistry` instead, whose instruments are shared do-nothing
singletons — the no-op path allocates nothing and never branches on state.

Snapshots are plain JSON-able dictionaries.

Everything in this module — and in the whole ``repro.telemetry`` package — is
standard library only; a static check in the test suite enforces it.
"""

from __future__ import annotations

import threading
import time


class Counter:
    """A monotonically increasing sum (events, spends, bytes).

    Updates are a single in-place add under the interpreter lock — no
    explicit locking.  Telemetry tolerates the (vanishingly rare) lost
    update a free-threaded interpreter could produce.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (queue depth, resident bytes, last spend)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float = 1.0) -> None:
        self.value += amount


class Distribution:
    """A streaming summary of observed samples: count, sum, min, max.

    The four running statistics are enough for stage-level attribution
    (mean = sum/count) without per-sample storage; full per-event detail
    belongs to tracing spans, not metrics.
    """

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def summary(self) -> dict:
        if self.count == 0:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.total / self.count,
        }


class Timer:
    """Context manager observing the wall time of a block into a distribution.

    Exactly one ``perf_counter_ns`` pair per timed event — the cost contract
    that makes it safe to leave timers on hot paths.
    """

    __slots__ = ("_distribution", "_start_ns")

    def __init__(self, distribution: Distribution) -> None:
        self._distribution = distribution
        self._start_ns = 0

    def __enter__(self) -> "Timer":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._distribution.observe((time.perf_counter_ns() - self._start_ns) / 1e9)
        return False


def _label_key(labels: dict) -> tuple:
    """The canonical (sorted, stringified) identity of a label set."""
    if not labels:
        return ()
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


class MetricsRegistry:
    """A process-local collection of named, labelled instruments.

    Instruments are identified by ``(kind, name, sorted labels)``; asking
    for the same identity twice returns the same object, so call sites can
    either hold the handle (hottest paths) or re-look it up per event (one
    dict ``get``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple, Counter | Gauge | Distribution] = {}

    @property
    def enabled(self) -> bool:
        return True

    def _instrument(self, kind: str, factory, name: str, labels: dict):
        key = (kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.setdefault(key, factory())
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        return self._instrument("counter", Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        return self._instrument("gauge", Gauge, name, labels)

    def distribution(self, name: str, **labels) -> Distribution:
        """The distribution for ``(name, labels)``, created on first use."""
        return self._instrument("distribution", Distribution, name, labels)

    def timer(self, name: str, **labels) -> Timer:
        """A one-shot :class:`Timer` over the distribution ``(name, labels)``."""
        return Timer(self.distribution(name, **labels))

    # -- snapshots --------------------------------------------------------
    def snapshot(self) -> dict:
        """A structured, JSON-able dump of every instrument."""
        counters, gauges, distributions = [], [], []
        with self._lock:
            items = list(self._instruments.items())
        for (kind, name, labels), instrument in items:
            entry = {"name": name, "labels": [list(pair) for pair in labels]}
            if kind == "counter":
                entry["value"] = instrument.value
                counters.append(entry)
            elif kind == "gauge":
                entry["value"] = instrument.value
                gauges.append(entry)
            else:
                entry.update(instrument.summary())
                distributions.append(entry)
        return {
            "counters": counters,
            "gauges": gauges,
            "distributions": distributions,
        }

    def flat(self) -> dict:
        """A human-readable ``{"name{k=v,...}": value-or-summary}`` view."""
        result: dict[str, object] = {}
        snapshot = self.snapshot()
        for entry in snapshot["counters"] + snapshot["gauges"]:
            result[_flat_key(entry)] = entry["value"]
        for entry in snapshot["distributions"]:
            result[_flat_key(entry)] = {
                key: entry[key] for key in ("count", "total", "min", "max", "mean")
            }
        return result

    def clear(self) -> None:
        """Drop every instrument (a fresh run's zero state)."""
        with self._lock:
            self._instruments.clear()


def _flat_key(entry: dict) -> str:
    labels = entry.get("labels") or ()
    if not labels:
        return entry["name"]
    rendered = ",".join(f"{key}={value}" for key, value in labels)
    return f"{entry['name']}{{{rendered}}}"


# ---------------------------------------------------------------------- #
# the disabled path: shared do-nothing singletons
# ---------------------------------------------------------------------- #
class _NullCounter:
    __slots__ = ()

    def add(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float = 1.0) -> None:
        pass


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _NullDistribution:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def summary(self) -> dict:
        return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_DISTRIBUTION = _NullDistribution()
_NULL_TIMER = _NullTimer()


class NullRegistry:
    """The disabled registry: every instrument is a shared no-op singleton.

    Handed out by :func:`repro.telemetry.registry` while telemetry is off,
    so instrumented call sites never branch — they always fetch an
    instrument and poke it; with telemetry off the poke is an empty method
    on a shared object.
    """

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str, **labels) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels) -> _NullGauge:
        return _NULL_GAUGE

    def distribution(self, name: str, **labels) -> _NullDistribution:
        return _NULL_DISTRIBUTION

    def timer(self, name: str, **labels) -> _NullTimer:
        return _NULL_TIMER

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "distributions": []}

    def flat(self) -> dict:
        return {}

    def clear(self) -> None:
        pass
