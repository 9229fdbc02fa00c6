"""PrivacyLedger thread safety.

Callers may reach one ledger from more than one thread; charges must never
be lost, duplicated or torn.
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
        assert len(ledger) == threads_n * per_thread
        labels = {entry.label for entry in ledger.entries}
        assert labels == {
            f"t{thread_id}.{i}" for thread_id in range(threads_n) for i in range(per_thread)
        }
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

