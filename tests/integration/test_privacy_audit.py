"""Integration-level empirical privacy sanity checks.

These are statistical smoke tests, not proofs: with a modest number of trials
they catch gross privacy-accounting mistakes (such as the flawed Section 3.1
variants, which fail them decisively) while the analytically correct
algorithms pass comfortably.
"""

import numpy as np
import pytest

from repro.baselines.flawed import flawed_exact_count_release
from repro.core.pmw import PMWConfig
from repro.core.two_table import two_table_release
from repro.core.uniformize import uniformize_release
from repro.datagen.synthetic import figure1_pair, uniform_two_table
from repro.queries.workload import Workload
from repro.relational.neighbors import random_neighbor

FAST = PMWConfig(max_iterations=3)


def _event_probabilities(algorithm, instance, neighbor, statistic, threshold, trials, seed):
    rng = np.random.default_rng(seed)
    hits_instance = 0
    hits_neighbor = 0
    for _ in range(trials):
        if statistic(algorithm(instance, rng)) > threshold:
            hits_instance += 1
        if statistic(algorithm(neighbor, rng)) > threshold:
            hits_neighbor += 1
    return hits_instance / trials, hits_neighbor / trials


class TestFlawedVariantViolatesDP:
    def test_exact_count_release_is_distinguishable(self):
        pair = figure1_pair(40, side_domain_size=4)
        workload = Workload.counting(pair.query)

        def algorithm(instance, rng):
            return flawed_exact_count_release(
                instance, workload, 1.0, 1e-5, rng=rng, pmw_config=FAST
            )

        p_instance, p_neighbor = _event_probabilities(
            algorithm,
            pair.instance,
            pair.neighbor,
            statistic=lambda result: result.synthetic.total_mass(),
            threshold=20.0,
            trials=15,
            seed=0,
        )
        # Total mass equals the true join size, so the event separates perfectly —
        # a blatant violation of (1, 1e-5)-DP.
        assert p_instance == 1.0
        assert p_neighbor == 0.0


class TestPMWBudgetSplitRegression:
    """Regression guard for the Lemma 3.2 budget split inside PMW.

    The adaptive rounds historically derived their iteration count and ε'
    from the *full* (ε, δ) although the noisy total had already consumed
    (ε/2, δ/2).  The recorded split below and the E14 audit's ε + 1 bound
    (``tests/experiments/test_claims.py``) pin the fix.
    """

    def test_release_pmw_rounds_get_quarter_budget(self):
        """Algorithm 1 hands (ε/2, δ/2) to PMW, which halves it again."""
        from repro.core.pmw import private_multiplicative_weights

        epsilon, delta = 1.0, 1e-4
        instance = uniform_two_table(4, 3)
        workload = Workload.counting(instance.query)
        pmw = private_multiplicative_weights(
            instance, workload, epsilon / 2.0, delta / 2.0, 3.0, rng=np.random.default_rng(0),
            config=FAST
        )
        assert pmw.total_privacy.epsilon == pytest.approx(epsilon / 4.0)
        assert pmw.rounds_privacy.epsilon == pytest.approx(epsilon / 4.0)
        assert pmw.total_privacy.delta == pytest.approx(delta / 4.0)
        assert pmw.rounds_privacy.delta == pytest.approx(delta / 4.0)
        # ε' is derived from the rounds half, not the full invocation budget.
        from math import log, sqrt

        expected = (epsilon / 4.0) / (
            16.0 * sqrt(pmw.iterations * max(log(4.0 / delta), 1.0))
        )
        assert pmw.epsilon_per_round == pytest.approx(expected)


class TestCorrectAlgorithmsAreStatisticallyClose:
    @pytest.mark.parametrize("algorithm_name", ["two_table", "uniformize"])
    def test_released_total_event_within_dp_envelope(self, algorithm_name):
        epsilon, delta = 1.0, 1e-3
        instance = uniform_two_table(4, 3)
        rng = np.random.default_rng(1)
        neighbor = random_neighbor(instance, rng)
        workload = Workload.counting(instance.query)

        def algorithm(target, generator):
            if algorithm_name == "two_table":
                return two_table_release(
                    target, workload, epsilon, delta, rng=generator, pmw_config=FAST
                )
            return uniformize_release(
                target, workload, epsilon, delta, rng=generator, pmw_config=FAST
            )

        # Median split of the released totals as the distinguishing event.
        probe = [
            algorithm(instance, np.random.default_rng(100 + i)).synthetic.total_mass()
            for i in range(10)
        ]
        threshold = float(np.median(probe))
        trials = 40
        p_instance, p_neighbor = _event_probabilities(
            algorithm,
            instance,
            neighbor,
            statistic=lambda result: result.synthetic.total_mass(),
            threshold=threshold,
            trials=trials,
            seed=2,
        )
        # Two-sided DP envelope check with generous statistical slack
        # (binomial std with 40 trials ≈ 0.08).
        slack = 0.3
        assert p_instance <= np.exp(epsilon) * p_neighbor + delta + slack
        assert p_neighbor <= np.exp(epsilon) * p_instance + delta + slack
