"""PrivacyLedger thread safety and the observer hook.

Callers and the audit journal may reach the ledger from more than one
thread; charges must never be lost or torn, observers must
see every entry exactly once, and an observer that charges back into the
ledger (or unsubscribes mid-stream) must not deadlock — observers are
invoked outside the ledger lock.
"""

from __future__ import annotations

import threading

import pytest

from repro.mechanisms.ledger import PrivacyLedger
from repro.mechanisms.spec import PrivacySpec

_SPEC = PrivacySpec(0.01, 1e-9)


class TestConcurrentCharges:
    def test_no_charge_lost_across_threads(self):
        ledger = PrivacyLedger()
        threads_n, per_thread = 8, 500
        seen: list = []
        unsubscribe = ledger.subscribe(seen.append)
        barrier = threading.Barrier(threads_n)

        def worker(thread_id: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                ledger.charge(f"t{thread_id}.{i}", _SPEC)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        unsubscribe()
        assert len(ledger) == threads_n * per_thread
        assert len(seen) == threads_n * per_thread
        assert len({id(entry) for entry in seen}) == len(seen)
        total = ledger.total()
        assert total.epsilon == pytest.approx(threads_n * per_thread * _SPEC.epsilon)

    def test_total_consistent_while_charging(self):
        # total() snapshots the entries under the lock, so a concurrent
        # reader always sees a consistent prefix (never a torn list).
        ledger = PrivacyLedger()
        ledger.charge("seed", _SPEC)  # total() raises on an empty ledger
        stop = threading.Event()
        failures: list[str] = []

        def reader() -> None:
            while not stop.is_set():
                total = ledger.total()
                expected = round(total.epsilon / _SPEC.epsilon)
                if abs(total.epsilon - expected * _SPEC.epsilon) > 1e-9:
                    failures.append(f"torn total {total.epsilon}")

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for i in range(2000):
                ledger.charge(f"c{i}", _SPEC)
        finally:
            stop.set()
            thread.join()
        assert not failures


class TestObserverHook:
    def test_observer_sees_every_entry_in_order(self):
        ledger = PrivacyLedger()
        seen: list = []
        ledger.subscribe(seen.append)
        for i in range(5):
            ledger.charge(f"q{i}", _SPEC)
        assert [entry.label for entry in seen] == [f"q{i}" for i in range(5)]

    def test_unsubscribe_stops_delivery_and_is_idempotent(self):
        ledger = PrivacyLedger()
        seen: list = []
        unsubscribe = ledger.subscribe(seen.append)
        ledger.charge("before", _SPEC)
        unsubscribe()
        unsubscribe()  # second call is a no-op, not an error
        ledger.charge("after", _SPEC)
        assert [entry.label for entry in seen] == ["before"]

    def test_observer_may_reenter_the_ledger(self):
        # Observers run outside the lock, so an observer can read (or even
        # charge) the ledger without deadlocking.
        ledger = PrivacyLedger()
        lengths: list[int] = []
        ledger.subscribe(lambda entry: lengths.append(len(ledger)))
        ledger.charge("a", _SPEC)
        ledger.charge("b", _SPEC)
        assert lengths == [1, 2]

    def test_multiple_observers_each_see_all(self):
        ledger = PrivacyLedger()
        first: list = []
        second: list = []
        ledger.subscribe(first.append)
        ledger.subscribe(second.append)
        ledger.charge("x", _SPEC)
        assert len(first) == len(second) == 1
