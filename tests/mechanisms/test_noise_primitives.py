"""Unit tests for the noise primitives and the exponential mechanism."""

import math

import numpy as np
import pytest

from repro.mechanisms.exponential import (
    exponential_mechanism,
    exponential_mechanism_probabilities,
)
from repro.mechanisms.laplace import laplace_mechanism, sample_laplace
from repro.mechanisms.rng import resolve_rng
from repro.mechanisms.truncated_laplace import (
    sample_truncated_laplace,
    truncated_laplace_mechanism,
    truncation_radius,
)


#: Each sampler and the mechanisms that call through them, given only ``rng=``.
DRAWS = [
    pytest.param(lambda **rng: sample_laplace(1.0, 1.0, **rng), id="sample_laplace"),
    pytest.param(lambda **rng: laplace_mechanism(0.0, 1.0, 1.0, **rng), id="laplace_mechanism"),
    pytest.param(
        lambda **rng: sample_truncated_laplace(1.0, 1.0, 1e-5, **rng),
        id="sample_truncated_laplace",
    ),
    pytest.param(
        lambda **rng: truncated_laplace_mechanism(0.0, 1.0, 1.0, 1e-5, **rng),
        id="truncated_laplace_mechanism",
    ),
    pytest.param(
        lambda **rng: exponential_mechanism(np.zeros(3), 1.0, **rng), id="exponential_mechanism"
    ),
]


@pytest.mark.parametrize("draw", DRAWS)
def test_a_draw_without_rng_is_refused(draw):
    """A forgotten ``rng=`` would draw from a generator outside the run's seed."""
    with pytest.raises(TypeError, match="rng"):
        draw()


@pytest.mark.parametrize("draw", DRAWS)
def test_a_draw_from_anything_but_a_generator_is_refused(draw, monkeypatch):
    """``rng=None`` or a seed would draw from a generator made outside the run's seed.

    Each is refused before numpy makes a generator, so before any draw.
    """
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(a) or default_rng(*a))
    for rng in (None, 0, np.random.RandomState(0)):
        with pytest.raises(TypeError, match="rng"):
            draw(rng=rng)
    assert made == []
    assert isinstance(draw(rng=np.random.default_rng(0)), (float, int))


#: Each sampler and mechanism with Δ = 1 at a budget (ε, δ); the Laplace forms take no δ.
CALIBRATED = {
    "sample_laplace": lambda epsilon, delta, rng: sample_laplace(1.0, epsilon, rng=rng),
    "laplace_mechanism": lambda epsilon, delta, rng: laplace_mechanism(5.0, 1.0, epsilon, rng=rng),
    "sample_truncated_laplace": lambda epsilon, delta, rng: sample_truncated_laplace(
        1.0, epsilon, delta, rng=rng
    ),
    "truncated_laplace_mechanism": lambda epsilon, delta, rng: truncated_laplace_mechanism(
        5.0, 1.0, epsilon, delta, rng=rng
    ),
}
REFUSED_BUDGETS = [
    *(
        pytest.param(name, epsilon, 1e-5, id=f"{name}-epsilon={epsilon}")
        for name in CALIBRATED
        for epsilon in (0.0, -1.0, math.inf, math.nan)
    ),
    *(
        pytest.param(name, 1.0, delta, id=f"{name}-delta={delta}")
        for name in CALIBRATED
        if "truncated" in name
        for delta in (0.0, 1.0, math.nan)
    ),
]


@pytest.mark.parametrize(("draw", "epsilon", "delta"), REFUSED_BUDGETS)
def test_a_budget_out_of_range_is_refused_before_any_draw(draw, epsilon, delta):
    """ε ∉ (0, ∞) and δ ∉ (0, 1) raise ``ValueError`` with the generator untouched.

    At ε = ∞ the Laplace scale Δ/ε was 0, so a Laplace draw returned its
    value with no noise; the truncated radius τ(∞, δ, Δ) was NaN.
    """
    generator = np.random.default_rng(0)
    before = generator.bit_generator.state
    with pytest.raises(ValueError):
        CALIBRATED[draw](epsilon, delta, generator)
    assert generator.bit_generator.state == before


class TestRng:
    def test_resolve_with_seed_is_deterministic(self):
        first = resolve_rng(seed=7).integers(1000)
        second = resolve_rng(seed=7).integers(1000)
        assert first == second

    def test_resolve_passthrough(self):
        generator = np.random.default_rng(0)
        assert resolve_rng(generator) is generator

    def test_resolve_rejects_both(self):
        with pytest.raises(ValueError):
            resolve_rng(np.random.default_rng(0), seed=1)

    def test_resolve_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            resolve_rng("not a generator")


class TestLaplace:
    def test_zero_scale_returns_value(self, rng):
        assert sample_laplace(0.0, 1.0, rng=rng) == 0.0
        assert laplace_mechanism(5.0, 0.0, 1.0, rng=rng) == 5.0

    def test_scalar_output_type(self, rng):
        value = laplace_mechanism(10.0, 1.0, 1.0, rng=rng)
        assert isinstance(value, float)

    def test_vector_output(self, rng):
        values = laplace_mechanism(np.zeros(100), 1.0, 1.0, rng=rng)
        assert values.shape == (100,)

    def test_noise_scale_roughly_correct(self, rng):
        samples = sample_laplace(2.0, 1.0, size=20000, rng=rng)
        # Laplace(b) has standard deviation b·√2.
        assert np.std(samples) == pytest.approx(2.0 * math.sqrt(2.0), rel=0.1)

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            laplace_mechanism(0.0, -1.0, 1.0, rng=rng)
        with pytest.raises(ValueError):
            laplace_mechanism(0.0, 1.0, 0.0, rng=rng)
        with pytest.raises(ValueError):
            sample_laplace(-1.0, 1.0, rng=rng)


class TestTruncatedLaplace:
    def test_truncation_radius_formula(self):
        epsilon, delta, sensitivity = 0.5, 1e-4, 2.0
        expected = (sensitivity / epsilon) * math.log(
            1.0 + (math.exp(epsilon) - 1.0) / delta
        )
        assert truncation_radius(epsilon, delta, sensitivity) == pytest.approx(expected)

    def test_truncation_radius_validation(self):
        with pytest.raises(ValueError):
            truncation_radius(0.0, 1e-4, 1.0)
        with pytest.raises(ValueError):
            truncation_radius(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            truncation_radius(1.0, 1e-4, -1.0)

    def test_support(self, rng):
        radius = truncation_radius(1.0, 1e-4, 1.0)
        samples = sample_truncated_laplace(1.0, 1.0, 1e-4, size=5000, rng=rng)
        assert np.all(samples >= 0.0)
        assert np.all(samples <= 2.0 * radius)

    def test_mode_at_radius(self, rng):
        # The density peaks at the radius; the sample mean is the radius by symmetry.
        radius = truncation_radius(1.0, 1e-4, 1.0)  # ≈ 9.75 at scale 1
        samples = sample_truncated_laplace(1.0, 1.0, 1e-4, size=40000, rng=rng)
        assert np.mean(samples) == pytest.approx(radius, rel=0.05)

    def test_mechanism_never_underestimates(self, rng):
        for _ in range(200):
            value = truncated_laplace_mechanism(7.0, 1.0, 1.0, 1e-5, rng=rng)
            assert value >= 7.0

    def test_mechanism_upper_bound(self, rng):
        radius = truncation_radius(1.0, 1e-5, 1.0)
        for _ in range(200):
            value = truncated_laplace_mechanism(7.0, 1.0, 1.0, 1e-5, rng=rng)
            assert value <= 7.0 + 2.0 * radius + 1e-9

    def test_zero_sensitivity_is_exact(self, rng):
        assert truncated_laplace_mechanism(3.0, 0.0, 1.0, 1e-5, rng=rng) == 3.0

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            sample_truncated_laplace(0.0, 1.0, 1e-5, rng=rng)
        with pytest.raises(ValueError):
            sample_truncated_laplace(1.0, 0.0, 1e-5, rng=rng)


class TestExponentialMechanism:
    def test_probabilities_sum_to_one(self):
        probabilities = exponential_mechanism_probabilities(np.array([1.0, 2.0, 3.0]), 1.0)
        assert probabilities.sum() == pytest.approx(1.0)

    def test_higher_score_more_likely(self):
        probabilities = exponential_mechanism_probabilities(np.array([0.0, 10.0]), 1.0)
        assert probabilities[1] > probabilities[0]

    def test_probability_ratio_matches_definition(self):
        scores = np.array([0.0, 4.0])
        epsilon = 0.5
        probabilities = exponential_mechanism_probabilities(scores, epsilon)
        expected_ratio = math.exp(epsilon * 4.0 / 2.0)
        assert probabilities[1] / probabilities[0] == pytest.approx(expected_ratio)

    def test_large_scores_do_not_overflow(self):
        probabilities = exponential_mechanism_probabilities(
            np.array([1e6, 1e6 + 1.0]), 1.0
        )
        assert np.isfinite(probabilities).all()

    def test_sampling_concentrates_on_best(self, rng):
        scores = np.array([0.0, 0.0, 50.0])
        picks = [exponential_mechanism(scores, 1.0, rng=rng) for _ in range(100)]
        assert np.mean(np.array(picks) == 2) > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential_mechanism_probabilities(np.array([1.0]), -1.0)
        for epsilon in (math.inf, math.nan):  # both gave NaN probabilities
            with pytest.raises(ValueError):
                exponential_mechanism_probabilities(np.array([1.0]), epsilon)
        with pytest.raises(ValueError):
            exponential_mechanism_probabilities(np.array([]), 1.0)
