"""Unit tests for privacy specs, composition rules, and the ledger."""

import math

import pytest

from repro.mechanisms.composition import (
    advanced_composition,
    basic_composition,
    group_privacy,
    parallel_composition,
    per_step_epsilon_for_advanced_composition,
)
from repro.mechanisms.ledger import PrivacyLedger
from repro.mechanisms.spec import PrivacySpec


class TestPrivacySpec:
    def test_valid_spec(self):
        spec = PrivacySpec(1.0, 1e-6)
        assert spec.epsilon == 1.0
        assert spec.delta == 1e-6

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            PrivacySpec(0.0, 1e-6)
        with pytest.raises(ValueError):
            PrivacySpec(-1.0, 1e-6)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            PrivacySpec(1.0, 1.0)
        with pytest.raises(ValueError):
            PrivacySpec(1.0, -0.1)

    def test_split_and_halve(self):
        spec = PrivacySpec(1.0, 1e-4)
        half = spec.halve()
        assert half.epsilon == 0.5
        assert half.delta == 5e-5
        third = spec.split(4)
        assert third.epsilon == 0.25

    def test_scaled(self):
        spec = PrivacySpec(0.5, 1e-6).scaled(3)
        assert spec.epsilon == 1.5
        assert spec.delta == pytest.approx(3e-6)

    def test_str(self):
        assert "ε=1" in str(PrivacySpec(1.0, 1e-6))


class TestComposition:
    def test_basic_composition_adds(self):
        total = basic_composition([PrivacySpec(0.5, 1e-6), PrivacySpec(0.25, 1e-6)])
        assert total.epsilon == pytest.approx(0.75)
        assert total.delta == pytest.approx(2e-6)

    def test_basic_composition_empty_rejected(self):
        with pytest.raises(ValueError):
            basic_composition([])

    def test_parallel_composition_takes_max(self):
        total = parallel_composition([PrivacySpec(0.5, 1e-6), PrivacySpec(0.25, 1e-5)])
        assert total.epsilon == 0.5
        assert total.delta == 1e-5

    def test_group_privacy_identity_for_one(self):
        spec = PrivacySpec(0.3, 1e-6)
        assert group_privacy(spec, 1) == spec

    def test_group_privacy_scales_epsilon_linearly(self):
        spec = group_privacy(PrivacySpec(0.3, 1e-6), 4)
        assert spec.epsilon == pytest.approx(1.2)
        assert spec.delta > 4e-6  # the e^{ε(k-1)} factor

    def test_advanced_composition_beats_basic_for_many_steps(self):
        per_step = PrivacySpec(0.01, 1e-9)
        steps = 400
        advanced = advanced_composition(per_step, steps, delta_slack=1e-6)
        basic = basic_composition([per_step] * steps)
        assert advanced.epsilon < basic.epsilon

    def test_per_step_epsilon_matches_algorithm2(self):
        # Algorithm 2 uses ε' = ε / (16·sqrt(k·log(1/δ))).
        value = per_step_epsilon_for_advanced_composition(1.0, 25, 1e-4)
        expected = 1.0 / (16.0 * math.sqrt(25 * math.log(1e4)))
        assert value == pytest.approx(expected)

    def test_per_step_epsilon_validation(self):
        with pytest.raises(ValueError):
            per_step_epsilon_for_advanced_composition(1.0, 0, 1e-4)
        with pytest.raises(ValueError):
            per_step_epsilon_for_advanced_composition(-1.0, 5, 1e-4)


class TestLedger:
    def test_sequential_charges_add(self):
        ledger = PrivacyLedger()
        ledger.charge("a", PrivacySpec(0.5, 1e-6))
        ledger.charge("b", PrivacySpec(0.5, 1e-6))
        total = ledger.total()
        assert total.epsilon == pytest.approx(1.0)
        assert len(ledger) == 2

    def test_parallel_group_takes_max(self):
        ledger = PrivacyLedger()
        ledger.charge("bucket1", PrivacySpec(0.5, 1e-6), parallel_group="buckets")
        ledger.charge("bucket2", PrivacySpec(0.5, 1e-6), parallel_group="buckets")
        ledger.charge("count", PrivacySpec(0.25, 1e-6))
        total = ledger.total()
        assert total.epsilon == pytest.approx(0.75)

    def test_empty_ledger_raises(self):
        with pytest.raises(ValueError):
            PrivacyLedger().total()
