"""Smoke tests for the experiment harness (tiny parameterisations).

Every experiment module must run end-to-end and return a table plus the raw
quantities the benchmark suite asserts on.  The parameters here are much
smaller than the experiments' defaults (what ``python -m repro.cli run``
prints) so the whole file stays fast; the goal is coverage of the harness
code paths, not statistical power.  The full-size ``benchmarks/bench_*.py``
scripts need pytest-benchmark to run, so here they are only imported: that
catches a script whose imports have drifted from the experiment modules.  Every
registered experiment must have exactly one such script and a run below.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.reporting import ExperimentTable
from repro.experiments import DESCRIPTIONS, EXPERIMENTS
from repro.experiments import (
    e01_flawed_variants,
    e02_two_table_scaling,
    e03_lower_bound_two_table,
    e04_delta_floor,
    e05_multi_table,
    e06_uniformize_two_table,
    e07_example42,
    e08_hierarchical,
    e09_worst_case_agm,
    e10_conforming,
    e11_baseline_composition,
    e12_tpch,
    e13_single_table_pmw,
    e14_privacy_audit,
)

_BENCH_SCRIPTS = sorted(
    (Path(__file__).resolve().parents[2] / "benchmarks").glob("bench_*.py")
)


def _assert_table(result):
    """Every experiment returns its printable table under ``"table"``."""
    assert isinstance(result["table"], ExperimentTable)


class TestRegistry:
    def test_all_experiments_registered_and_described(self):
        assert set(EXPERIMENTS) == set(DESCRIPTIONS)
        assert len(EXPERIMENTS) == 14
        for name, runner in EXPERIMENTS.items():
            assert callable(runner), name

    def test_every_experiment_has_one_bench_script_and_a_smoke_run(self):
        # bench_e01_flawed_variants.py -> "e1"; test_e7_example42 -> "e7".
        bench_ids = [f"e{int(path.stem.split('_')[1][1:])}" for path in _BENCH_SCRIPTS]
        assert sorted(bench_ids) == sorted(EXPERIMENTS)
        smoke_ids = {
            name.split("_")[1]
            for name in dir(TestIndividualExperiments)
            if name.startswith("test_e")
        }
        assert smoke_ids == set(EXPERIMENTS)


@pytest.mark.parametrize("script", _BENCH_SCRIPTS, ids=lambda path: path.stem)
def test_bench_script_imports_and_defines_a_test(script):
    spec = importlib.util.spec_from_file_location(script.stem, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(
        name.startswith("test_") and callable(getattr(module, name))
        for name in dir(module)
    ), f"{script.name} defines no test_* function"


class TestIndividualExperiments:
    def test_e1_flawed_variants(self):
        result = e01_flawed_variants.run(n=80, side_domain_size=4, trials=3, seed=0)
        _assert_table(result)
        assert set(result["results"]) == {
            "flawed_exact_count",
            "flawed_padded",
            "two_table (Alg 1)",
        }

    def test_e2_two_table_scaling(self):
        result = e02_two_table_scaling.run(
            num_values_sweep=(2, 4),
            degree_sweep=(2,),
            num_queries=6,
            trials=1,
            seed=0,
        )
        _assert_table(result)
        assert len(result["rows"]) == 3
        for row in result["rows"]:
            assert row["predicted"] > 0
            assert np.isfinite(row["measured"])

    def test_e3_lower_bound(self):
        result = e03_lower_bound_two_table.run(
            n=6, domain_size=3, num_queries=4, delta_sweep=(1, 2), seed=0
        )
        _assert_table(result)
        for row in result["rows"]:
            assert row["lower_bound"] <= row["upper_bound"] * 10
            assert row["recovered_error"] <= row["lifted_error"] + 1e-9

    def test_e4_delta_floor(self):
        result = e04_delta_floor.run(degree_sweep=(1, 4), num_values=2, trials=2, seed=0)
        _assert_table(result)
        errors = [row["count_error"] for row in result["rows"]]
        assert all(np.isfinite(error) for error in errors)

    def test_e5_multi_table(self):
        result = e05_multi_table.run(
            scale_sweep=(0.25,), num_queries=5, trials=1, seed=0
        )
        _assert_table(result)
        row = result["rows"][0]
        assert row["residual_sensitivity"] >= 1
        assert row["ratio"] > 0

    def test_e6_uniformize(self):
        result = e06_uniformize_two_table.run(
            n_sweep=(16,), num_queries=5, trials=1, seed=0
        )
        _assert_table(result)
        row = result["rows"][0]
        assert row["bound_33"] > 0 and row["bound_44"] > 0

    def test_e7_example42(self):
        result = e07_example42.run(k_sweep=(4,), num_queries=5, trials=1, seed=0)
        _assert_table(result)
        row = result["rows"][0]
        assert row["local_sensitivity"] == 4 ** (2 / 3) // 1 + 1 or row["local_sensitivity"] >= 1
        assert row["theory_ratio"] > 0

    def test_e7_theory_ratio_increases_with_k(self):
        result = e07_example42.run(k_sweep=(4, 8), num_queries=5, trials=1, seed=0)
        _assert_table(result)
        ratios = [row["theory_ratio"] for row in result["rows"]]
        assert ratios[1] > ratios[0]

    def test_e8_hierarchical(self):
        result = e08_hierarchical.run(domain_size=3, num_queries=4, seed=0)
        _assert_table(result)
        assert result["tuple_multiplicity"] >= 1
        assert result["configuration_rs"] >= result["exact_rs"] - 1e-9
        assert result["num_buckets"] >= 1

    def test_e9_agm(self):
        result = e09_worst_case_agm.run(
            domain_size=4, tuples_per_relation=8, trials=1, seed=0
        )
        _assert_table(result)
        for row in result["rows"]:
            assert row["measured_out"] <= row["agm_bound"] + 1e-9
            assert row["rho"] >= 1.0

    def test_e10_conforming(self):
        result = e10_conforming.run(
            out_vectors=({1: 40},), num_queries=5, trials=1, seed=0
        )
        _assert_table(result)
        row = result["rows"][0]
        assert row["lower_bound"] <= row["upper_bound"]

    def test_e11_baseline(self):
        result = e11_baseline_composition.run(
            workload_sizes=(4, 64),
            num_join_values=6,
            tuples_per_relation=40,
            trials=1,
            seed=0,
        )
        _assert_table(result)
        rows = result["rows"]
        # The Laplace baseline degrades with |Q| much faster than the release.
        assert rows[-1]["laplace_error"] > rows[0]["laplace_error"]

    def test_e12_tpch(self):
        result = e12_tpch.run(scale_sweep=(0.25,), num_predicate_queries=4, seed=0)
        _assert_table(result)
        assert len(result["rows"]) == 2
        for row in result["rows"]:
            assert row["runtime"] >= 0
            assert np.isfinite(row["error"])

    def test_e13_single_table(self):
        result = e13_single_table_pmw.run(
            n_sweep=(30,), domain_shape={"X": 6, "Y": 6}, num_queries=8, trials=1, seed=0
        )
        _assert_table(result)
        row = result["rows"][0]
        assert 0 < row["ratio"] < 10

    def test_e14_privacy_audit(self):
        result = e14_privacy_audit.run(trials=10, seed=0)
        _assert_table(result)
        # Loose sanity bound: with few trials the estimator is noisy, but it
        # should never be wildly above the declared ε.
        assert result["empirical_epsilon"] <= 5.0 * result["declared_epsilon"] + 1.0
