"""MetricsRegistry unit behaviour: identity, snapshots, null path."""

from __future__ import annotations

import pytest

from repro.telemetry.metrics import MetricsRegistry, NullRegistry


def test_instrument_identity_by_name_and_labels():
    registry = MetricsRegistry()
    a = registry.counter("hits", backend="dense")
    b = registry.counter("hits", backend="dense")
    c = registry.counter("hits", backend="sparse")
    assert a is b
    assert a is not c
    # Label order never matters — identity is the sorted label set.
    assert registry.gauge("g", x=1, y=2) is registry.gauge("g", y=2, x=1)
    # Same (name, labels) under a different kind is a different instrument.
    assert registry.distribution("hits", backend="dense") is not a


def test_counter_gauge_distribution_semantics():
    registry = MetricsRegistry()
    registry.counter("n").add()
    registry.counter("n").add(2.5)
    registry.gauge("depth").set(7)
    for value in (3.0, 1.0, 2.0):
        registry.distribution("lat").observe(value)
    flat = registry.flat()
    assert flat["n"] == 3.5
    assert flat["depth"] == 7.0
    assert flat["lat"] == {"count": 3, "total": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0}


def test_timer_observes_wall_time():
    registry = MetricsRegistry()
    with registry.timer("block_seconds", stage="pack"):
        pass
    summary = registry.distribution("block_seconds", stage="pack").summary()
    assert summary["count"] == 1
    assert summary["total"] >= 0.0


def test_flat_key_rendering():
    registry = MetricsRegistry()
    registry.counter("evaluator.backend_choice", backend="sharded").add()
    registry.counter("plain").add()
    flat = registry.flat()
    assert flat["evaluator.backend_choice{backend=sharded}"] == 1.0
    assert flat["plain"] == 1.0


def test_clear_resets_to_zero_state():
    registry = MetricsRegistry()
    registry.counter("n").add()
    registry.clear()
    assert registry.flat() == {}


def test_null_registry_hands_out_shared_singletons():
    null = NullRegistry()
    assert null.counter("a") is null.counter("b", any_label="x")
    assert null.gauge("a") is null.gauge("b")
    assert null.distribution("a") is null.distribution("b")
    null.counter("a").add(10)
    null.gauge("a").set(10)
    null.distribution("a").observe(10)
    with null.timer("a"):
        pass
    assert null.flat() == {}
    assert null.snapshot() == {"counters": [], "gauges": [], "distributions": []}
    assert not null.enabled
    assert MetricsRegistry().enabled


def test_snapshot_is_json_shaped():
    import json

    registry = MetricsRegistry()
    registry.counter("n", kind="x").add()
    registry.distribution("lat").observe(1.0)
    json.dumps(registry.snapshot())  # must not raise
    json.dumps(registry.flat())
