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
    assert registry.gauge("hits", backend="dense") is not a


def test_counter_gauge_semantics():
    registry = MetricsRegistry()
    registry.counter("n").add()
    registry.counter("n").add(2.5)
    registry.gauge("depth").set(7)
    flat = registry.flat()
    assert flat["n"] == 3.5
    assert flat["depth"] == 7.0


def test_snapshot_lists_each_instrument_under_its_kind():
    registry = MetricsRegistry()
    registry.counter("n", kind="x").add(2)
    registry.gauge("depth").set(7)
    assert registry.snapshot() == {
        "counters": [{"name": "n", "labels": [["kind", "x"]], "value": 2.0}],
        "gauges": [{"name": "depth", "labels": [], "value": 7.0}],
    }


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
    null.counter("a").add(10)
    null.gauge("a").set(10)
    assert null.flat() == {}
    assert null.snapshot() == {"counters": [], "gauges": []}
    assert not null.enabled
    assert MetricsRegistry().enabled


def test_snapshot_is_json_shaped():
    import json

    registry = MetricsRegistry()
    registry.counter("n", kind="x").add()
    json.dumps(registry.snapshot())  # must not raise
    json.dumps(registry.flat())
