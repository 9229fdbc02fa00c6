"""The paper's claims, checked on every experiment at its one size.

Each ``test_eN_*`` runs experiment EN of ``repro.experiments`` once per seed
(0, 1 and 2) and asserts what the theorem, lemma or figure it names says
about the quantities the run measures: the raw values in its table's rows,
which ``python -m repro.cli run eN --seed S`` prints.

The paper's bounds are asymptotic: ``O(·)`` and ``Ω(·)`` hide unstated
constants, and ``f_upper`` hides poly-logarithmic factors.  So most checks
are a band of constant factors around a predicted shape, or a direction of
growth along a sweep.  Each constant says where it comes from; "seeds
0–19 read ..." gives the range measured at these sizes, so the margin a
band leaves is on the page.
"""

from math import exp, floor, log, log2

import numpy as np
import pytest

from repro.experiments import DESCRIPTIONS, EXPERIMENTS

seeds = pytest.mark.parametrize("seed", [0, 1, 2])


class TestRegistry:
    def test_all_experiments_registered_and_described(self):
        assert set(EXPERIMENTS) == set(DESCRIPTIONS)
        assert len(EXPERIMENTS) == 14
        for name, runner in EXPERIMENTS.items():
            assert callable(runner), name

    def test_every_experiment_has_one_claims_test(self):
        # test_e7_example_4_2_gap -> "e7"
        claim_ids = [name.split("_")[1] for name in globals() if name.startswith("test_e")]
        assert sorted(claim_ids) == sorted(EXPERIMENTS)


@seeds
def test_e1_example_3_1_flawed_variant_leaks_and_algorithm_1_does_not(seed):
    """Figure 1 / Example 3.1: the event mass(D') > n/3 on I vs its neighbour I'."""
    result = EXPERIMENTS["e1"](seed=seed)
    outcomes = {row["algorithm"]: row for row in result["table"].rows}
    epsilon, delta = result["epsilon"], result["delta"]

    # Releasing the exact join count separates I (join size n) from I'
    # (join size 0).  0.5: the event's frequencies differ in at least half
    # of the 8 trials per instance; seeds 0–19 read a gap of 0.625–1.
    assert outcomes["flawed_exact_count"]["gap"] >= 0.5

    # Algorithm 1 is (ε, δ)-DP (Lemma 3.2): P[E | I] ≤ e^ε·P[E | I'] + δ both
    # ways.  The 0.45 slack is a placeholder for the sampling error of 8
    # trials, to be replaced by the certified audit on ROADMAP.md ("A privacy
    # audit that can fail"); seeds 0–19 use at most 0.29 of it.
    slack = 0.45
    correct = outcomes["two_table (Alg 1)"]
    p_i = correct["event_probability_instance"]
    p_n = correct["event_probability_neighbor"]
    assert p_i <= exp(epsilon) * p_n + delta + slack
    assert p_n <= exp(epsilon) * p_i + delta + slack


@seeds
def test_e2_theorem_3_3_error_tracks_the_two_table_bound(seed):
    """Theorem 3.3: Algorithm 1's ℓ∞ error along the OUT and Δ sweeps."""
    rows = EXPERIMENTS["e2"](seed=seed)["table"].rows
    # measured / (√(OUT·(Δ+λ)) + (Δ+λ)·√λ)·f_upper stays within a constant
    # band: [0.05, 6] is a choice, as the theorem's constant is unstated;
    # seeds 0–19 read 0.73–2.41.
    ratios = [row["ratio"] for row in rows]
    assert max(ratios) <= 6.0
    assert min(ratios) >= 0.05
    # The predicted error grows with the join size along the OUT sweep.
    out_rows = [row for row in rows if row["sweep"].startswith("OUT")]
    assert out_rows[-1]["predicted"] > out_rows[0]["predicted"]


@seeds
def test_e3_theorem_3_5_lifted_hard_instance(seed):
    """Figure 2 / Theorem 3.5: a hard single table lifted by Δ."""
    result = EXPERIMENTS["e3"](seed=seed)
    rows = result["table"].rows
    for row in rows:
        # The Figure 2 construction: OUT = n·Δ and local sensitivity Δ.
        assert row["join_size"] == result["n"] * row["delta"]
        assert row["local_sensitivity"] == row["delta"]
        assert row["lower_bound"] <= row["upper_bound"]
        # Theorem 3.3's upper bound holds up to the same constant band as in
        # E2 (6); seeds 0–19 read lifted / upper ≤ 2.79.
        assert row["lifted_error"] <= 6.0 * row["upper_bound"]
        # The reduction divides the lifted answers by Δ ≥ 1.
        assert row["recovered_error"] <= row["lifted_error"] + 1e-9
    # So the recovered single-table error falls from Δ = 1 to Δ = 8; seeds
    # 0–19 read last / first ≤ 0.26.
    assert rows[-1]["recovered_error"] < rows[0]["recovered_error"]
    # The lower bound min(OUT, √(OUT·Δ)·f_lower) grows with Δ.
    lower_bounds = [row["lower_bound"] for row in rows]
    assert lower_bounds == sorted(lower_bounds)


@seeds
def test_e4_theorem_3_4_count_error_floor_grows_with_delta(seed):
    """Theorem 3.4: the Ω(Δ) floor on the counting query's error."""
    rows = EXPERIMENTS["e4"](seed=seed)["table"].rows
    # 0.25: Ω(Δ)'s constant is unstated; seeds 0–19 read error / Δ ≥ 54.7.
    for row in rows:
        assert row["count_error"] >= 0.25 * row["delta_ls"]
    assert rows[-1]["count_error"] > rows[0]["count_error"]
    # At Δ = 64, Δ dominates λ and the truncated-Laplace shift makes the
    # error Θ(Δ·λ): [0.1, 10] is an order of magnitude either side of 1;
    # seeds 0–19 read 4.75–5.99.
    assert 0.1 <= rows[-1]["error_over_delta_lambda"] <= 10.0


@seeds
def test_e5_theorem_1_5_error_tracks_residual_sensitivity(seed):
    """Theorem 1.5 / Algorithm 3: the 3-table chain along the scale sweep."""
    rows = EXPERIMENTS["e5"](seed=seed)["table"].rows
    # RS^β is at least the local sensitivity, which is at least 1 on a
    # non-empty join, and it grows with the scale.
    assert rows[0]["residual_sensitivity"] >= 1
    assert rows[-1]["residual_sensitivity"] > rows[0]["residual_sensitivity"]
    assert rows[-1]["predicted"] > rows[0]["predicted"]
    # measured / (√(OUT·RS) + RS·√λ)·f_upper within [0.05, 40], a constant
    # band as in E2, wider for the chain's looser residual bound; seeds
    # 0–19 read 3.8–16.8.
    ratios = [row["ratio"] for row in rows]
    assert max(ratios) <= 40.0
    assert min(ratios) >= 0.05
    # The shape holds: the ratio moves by at most 12× across the sweep;
    # seeds 0–19 read ≤ 2.8×.
    assert max(ratios) / min(ratios) <= 12.0


@seeds
def test_e6_theorem_4_4_uniformization_on_figure_3(seed):
    """Figure 3 / Theorem 4.4: join-as-one vs uniformized on a skewed join."""
    rows = EXPERIMENTS["e6"](seed=seed)["table"].rows
    for row in rows:
        # Each algorithm stays within the E2 band (6) of its own bound;
        # seeds 0–19 read ≤ 1.17 (Theorem 3.3) and ≤ 0.93 (Theorem 4.4).
        assert row["join_as_one"] <= 6.0 * row["bound_33"]
        assert row["uniformized"] <= 6.0 * row["bound_44"]
    # On this maximally skewed family Theorem 3.3's bound grows faster in n
    # than Theorem 4.4's (≈ n vs n^(3/4)), so their ratio increases.
    ratios = [row["bound_33"] / row["bound_44"] for row in rows]
    assert ratios[-1] > ratios[0]


@seeds
def test_e7_example_4_2_gap_grows_with_k(seed):
    """Example 4.2: the k^(1/3) gap between Algorithms 1 and 4."""
    rows = EXPERIMENTS["e7"](seed=seed)["table"].rows
    for row in rows:
        # The instance's largest degree level is 2^⌊(2/3)·log₂ k⌋ (k^(2/3)
        # when k is a power of √8).
        assert row["local_sensitivity"] == 2 ** floor((2.0 / 3.0) * log2(row["k"]))
        # n = O(k²): 4 is a constant chosen for the check; the three
        # instances read n / k² ≤ 2.63.
        assert row["n"] <= 4 * row["k"] ** 2
    # The bounds' ratio grows with k towards the asymptotic k^(1/3) gap.
    # The measured errors at these pre-asymptotic sizes are in the table
    # but are not asserted.
    theory_ratios = [row["theory_ratio"] for row in rows]
    assert theory_ratios == sorted(theory_ratios)
    assert theory_ratios[-1] > theory_ratios[0]


@seeds
def test_e8_lemma_4_10_and_theorem_c_2_on_figure_4(seed):
    """Figure 4 / Lemma 4.10 / Theorem C.2: the hierarchical partition."""
    values = EXPERIMENTS["e8"](seed=seed)["values"]
    # Lemma 4.10: each tuple lands in O(log^c n) sub-instances.  log^5 n
    # (floored at 16) is a generous c; seeds 0–19 read 1–2 at n = 55.
    n = max(values["input_size"], 3)
    assert values["tuple_multiplicity"] <= max(16.0, log(n) ** 5)
    # Theorem C.2: the configuration bound dominates the exact RS^β.
    assert values["configuration_rs"] >= values["exact_rs"] - 1e-9
    assert np.isfinite(values["error_multi_table"])
    assert np.isfinite(values["error_uniformized"])


@seeds
def test_e9_appendix_b_3_agm_exponents_and_bounds(seed):
    """Appendix B.3: fractional edge covers and the AGM bound."""
    table_rows = EXPERIMENTS["e9"](seed=seed)["table"].rows
    rows = {row["query"]: row for row in table_rows}
    # ρ(H) and max_E ρ(H_{E,∂E}) in closed form for the standard shapes.
    assert rows["two-table"]["rho"] == pytest.approx(2.0)
    assert rows["triangle"]["rho"] == pytest.approx(1.5)
    assert rows["3-chain"]["rho"] == pytest.approx(2.0)
    assert rows["star-3"]["rho"] == pytest.approx(3.0)
    assert rows["two-table"]["residual_exponent"] == pytest.approx(1.0)
    assert rows["3-chain"]["residual_exponent"] == pytest.approx(2.0)
    # 0/1 instances: OUT and every boundary query are at most n^ρ.
    for row in table_rows:
        assert row["measured_out"] <= row["agm_bound"] + 1e-9
        assert row["measured_rs"] <= row["agm_bound"] + 1e-9


@seeds
def test_e10_theorem_4_5_conforming_instances(seed):
    """Theorem 4.5: Algorithm 4 between the per-bucket lower and upper bounds."""
    rows = EXPERIMENTS["e10"](seed=seed)["table"].rows
    for row in rows:
        assert row["lower_bound"] <= row["upper_bound"]
        # Within the E2 band above (6) and a tenth below; seeds 0–19 read
        # measured / upper ≤ 1.40 and measured / lower ≥ 9.8.
        assert row["measured"] <= 6.0 * row["upper_bound"]
        assert row["measured"] >= 0.1 * row["lower_bound"]
    # Adding heavier buckets raises the max over buckets.
    lower_bounds = [row["lower_bound"] for row in rows]
    assert lower_bounds[-1] >= lower_bounds[0]


@seeds
def test_e11_section_1_2_one_release_beats_per_query_composition(seed):
    """Section 1.2: one synthetic release vs per-query Laplace, |Q| = 8 → 256."""
    rows = EXPERIMENTS["e11"](seed=seed)["table"].rows
    ratios = [row["ratio"] for row in rows]
    assert ratios[-1] > ratios[0]
    # Composition gives each query ε/|Q|, so the Laplace error grows about
    # linearly in |Q| (32× here): 4× leaves a factor 8 of margin; seeds
    # 0–19 read 35–112× growth and a final ratio of 34–65.
    assert ratios[-1] > 4.0
    assert rows[-1]["laplace_error"] > 4.0 * rows[0]["laplace_error"]
    # The release pays only polylog |Q| (log 256 / log 8 ≈ 2.7); seeds 0–19
    # read max / min ≤ 1.72.
    synthetic_errors = [row["synthetic_error"] for row in rows]
    assert max(synthetic_errors) <= 4.0 * min(synthetic_errors)


@seeds
def test_e12_tpch_joins_error_sublinear_and_chain_costlier(seed):
    """TPC-H-style joins: Theorems 3.3 and 1.5 on generated data."""
    rows = EXPERIMENTS["e12"](seed=seed)["table"].rows
    assert len(rows) == 6  # two joins per scale factor
    two_table_rows = [row for row in rows if row["join"] == "Customer⋈Orders"]
    chain_rows = [row for row in rows if row["join"] == "Nation⋈Cust⋈Orders"]
    assert two_table_rows[-1]["join_size"] > two_table_rows[0]["join_size"]
    # The error grows like √OUT, so error / OUT does not rise with scale:
    # 1.5 allows for noise; seeds 0–19 read last / first ≤ 0.87.
    assert two_table_rows[-1]["relative_error"] <= two_table_rows[0]["relative_error"] * 1.5
    # The chain's residual sensitivity exceeds the two-table join's local
    # sensitivity; seeds 0–19 read a chain error ≥ 12× the two-table one.
    for chain_row, two_row in zip(chain_rows, two_table_rows):
        assert chain_row["error"] >= two_row["error"]
    # A sanity bound, not a paper claim: seeds 0–19 read ≤ 0.05 s a release
    # on a 2-vCPU host.
    assert all(row["runtime"] < 30.0 for row in rows)


@seeds
def test_e13_theorem_1_3_single_table_error_is_sqrt_n(seed):
    """Theorem 1.3: single-table PMW error against √n·f_upper."""
    rows = EXPERIMENTS["e13"](seed=seed)["table"].rows
    # [0.1, 4]: a constant band as in E2; seeds 0–19 read 0.52–2.15.
    for row in rows:
        assert 0.1 <= row["ratio"] <= 4.0
    # The error grows with n, but sublinearly: seeds 0–19 read 6–13× for
    # a 16× larger n.
    assert rows[-1]["measured"] > rows[0]["measured"]
    growth = rows[-1]["measured"] / max(rows[0]["measured"], 1e-9)
    assert growth < rows[-1]["n"] / rows[0]["n"]


@seeds
def test_e14_lemma_3_2_audit_and_ledger_stay_within_budget(seed):
    """Lemma 3.2: Algorithm 1's empirical privacy loss and its ledger."""
    result = EXPERIMENTS["e14"](seed=seed)
    values = result["values"]
    # The histogram estimate over 8 bins and 60 trials per instance stays
    # below ε plus 1.0 of estimation slack; seeds 0–19 read ≤ 1.70 at ε = 1.
    assert values["empirical_epsilon"] <= values["declared_epsilon"] + 1.0
    # The run already called ledger.assert_within(budget), which raises on
    # overspend; the odometer's arithmetic must also cohere: every release
    # charged, the spend within 2·trials releases at (ε, δ), and remaining()
    # the exact complement, clamped at zero.
    assert values["ledger_charges"] >= 2 * values["trials"]
    assert 0.0 < values["spent_epsilon"] <= result["budget_epsilon"]
    assert values["remaining_epsilon"] >= 0.0
    assert values["remaining_epsilon"] == max(
        0.0, result["budget_epsilon"] - values["spent_epsilon"]
    )
    assert not result["budget_exhausted"]
