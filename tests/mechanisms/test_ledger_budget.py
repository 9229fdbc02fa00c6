"""Budget arithmetic on the ledger and the ambient-ledger plumbing.

``remaining()`` / ``assert_within()`` turn the odometer into a budget gate,
and the ambient :func:`use_ledger` context is how release algorithms (the
PMW routine today) charge their realised budget split without any signature
changes.  Charging must never touch the RNG stream — PMW outputs are
asserted bitwise-identical with and without a ledger installed.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.mechanisms.ledger import (
    BudgetExceededError,
    PrivacyLedger,
    ambient_ledger,
    use_ledger,
)
from repro.mechanisms.spec import PrivacySpec
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query
from repro.relational.instance import Instance


class TestRemaining:
    def test_empty_ledger_has_full_budget(self):
        ledger = PrivacyLedger()
        remaining = ledger.remaining(PrivacySpec(2.0, 1e-4))
        assert remaining.epsilon == 2.0
        assert remaining.delta == 1e-4
        assert not remaining.exhausted

    def test_remaining_is_the_complement_of_spent(self):
        ledger = PrivacyLedger()
        ledger.charge("a", PrivacySpec(0.5, 1e-5))
        ledger.charge("b", PrivacySpec(0.25, 1e-5))
        remaining = ledger.remaining(PrivacySpec(2.0, 1e-4))
        assert remaining.epsilon == pytest.approx(1.25)
        assert remaining.delta == pytest.approx(8e-5)

    def test_remaining_clamps_at_zero(self):
        ledger = PrivacyLedger()
        ledger.charge("a", PrivacySpec(3.0, 1e-3))
        remaining = ledger.remaining(PrivacySpec(2.0, 1e-4))
        assert remaining.epsilon == 0.0
        assert remaining.delta == 0.0
        assert remaining.exhausted

    def test_spent_on_empty_ledger_is_none(self):
        ledger = PrivacyLedger()
        assert ledger.spent() is None
        assert len(ledger) == 0


class TestAssertWithin:
    def test_within_budget_returns_spent(self):
        ledger = PrivacyLedger()
        ledger.charge("a", PrivacySpec(0.5, 1e-5))
        spent = ledger.assert_within(PrivacySpec(1.0, 1e-4))
        assert spent is not None
        assert spent.epsilon == 0.5

    def test_empty_ledger_is_within_any_budget(self):
        assert PrivacyLedger().assert_within(PrivacySpec(0.1, 0.0)) is None

    def test_epsilon_overspend_raises(self):
        ledger = PrivacyLedger()
        ledger.charge("a", PrivacySpec(1.5, 0.0))
        with pytest.raises(BudgetExceededError) as err:
            ledger.assert_within(PrivacySpec(1.0, 1e-4))
        assert err.value.spent.epsilon == 1.5
        assert err.value.budget.epsilon == 1.0

    def test_delta_overspend_raises(self):
        ledger = PrivacyLedger()
        ledger.charge("a", PrivacySpec(0.5, 1e-3))
        with pytest.raises(BudgetExceededError):
            ledger.assert_within(PrivacySpec(1.0, 1e-4))

    def test_exact_budget_is_within(self):
        ledger = PrivacyLedger()
        ledger.charge("a", PrivacySpec(1.0, 1e-4))
        ledger.assert_within(PrivacySpec(1.0, 1e-4))  # strict >: no raise

    def test_thread_safety_under_concurrent_charges(self):
        ledger = PrivacyLedger()
        budget = PrivacySpec(10_000.0, 0.5)
        errors = []

        def worker():
            try:
                for _ in range(200):
                    ledger.charge("w", PrivacySpec(0.001, 1e-9))
                    ledger.remaining(budget)
                    ledger.assert_within(budget)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(ledger) == 8 * 200
        assert ledger.spent().epsilon == pytest.approx(1.6)


class TestAmbientLedger:
    def test_default_is_none(self):
        assert ambient_ledger() is None

    def test_use_ledger_installs_and_restores(self):
        ledger = PrivacyLedger()
        with use_ledger(ledger) as installed:
            assert installed is ledger
            assert ambient_ledger() is ledger
        assert ambient_ledger() is None

    def test_use_ledger_nests(self):
        outer, inner = PrivacyLedger(), PrivacyLedger()
        with use_ledger(outer):
            with use_ledger(inner):
                assert ambient_ledger() is inner
            assert ambient_ledger() is outer

    def test_ambient_ledger_is_per_thread_context(self):
        ledger = PrivacyLedger()
        seen = []

        def probe():
            seen.append(ambient_ledger())

        with use_ledger(ledger):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen == [None]  # a fresh thread starts with a fresh context


class TestPMWCharges:
    @pytest.fixture()
    def setup(self):
        query = two_table_query(4, 4, 4)
        instance = Instance.from_tuple_lists(
            query,
            {
                "R1": [(a, a % 4) for a in range(4) for _ in range(3)],
                "R2": [(b, (b + 1) % 4) for b in range(4) for _ in range(3)],
            },
        )
        workload = Workload.random_sign(query, 10, seed=0)
        return instance, workload

    def test_pmw_charges_lemma_32_split(self, setup):
        instance, workload = setup
        epsilon, delta = 1.0, 1e-5
        ledger = PrivacyLedger()
        with use_ledger(ledger):
            private_multiplicative_weights(
                instance, workload, epsilon, delta, 2.0, seed=1,
                config=PMWConfig(num_iterations=4),
            )
        labels = [entry.label for entry in ledger.entries]
        assert labels == ["pmw.total", "pmw.rounds"]
        total = ledger.total()
        # The realised split composes back to exactly the declared budget.
        assert total.epsilon == pytest.approx(epsilon)
        assert total.delta == pytest.approx(delta)
        ledger.assert_within(PrivacySpec(epsilon * (1 + 1e-9), delta * (1 + 1e-9)))

    def test_nested_scopes_each_record_the_charges(self, setup):
        """A run charges every ledger in scope; once the inner scope closes, the outer alone."""
        instance, workload = setup
        outer, inner = PrivacyLedger(), PrivacyLedger()

        def run():
            private_multiplicative_weights(
                instance, workload, 1.0, 1e-5, 2.0, seed=1,
                config=PMWConfig(num_iterations=4),
            )

        with use_ledger(outer):
            with use_ledger(inner):
                run()
            run()
        assert [entry.label for entry in inner.entries] == ["pmw.total", "pmw.rounds"]
        assert [entry.label for entry in outer.entries] == ["pmw.total", "pmw.rounds"] * 2
        assert outer.entries[:2] == inner.entries

    def test_no_ambient_ledger_means_no_charges(self, setup):
        instance, workload = setup
        ledger = PrivacyLedger()
        private_multiplicative_weights(
            instance, workload, 1.0, 1e-5, 2.0, seed=1,
            config=PMWConfig(num_iterations=4),
        )
        assert len(ledger) == 0

    def test_charging_never_touches_the_rng(self, setup):
        instance, workload = setup
        kwargs = dict(seed=1, config=PMWConfig(num_iterations=4))
        bare = private_multiplicative_weights(
            instance, workload, 1.0, 1e-5, 2.0, **kwargs
        )
        with use_ledger(PrivacyLedger()):
            observed = private_multiplicative_weights(
                instance, workload, 1.0, 1e-5, 2.0, **kwargs
            )
        assert np.array_equal(bare.histogram, observed.histogram)
        assert bare.selected_queries == observed.selected_queries
        assert bare.noisy_total == observed.noisy_total
