"""Seeded inputs, the correctness gate, and the runner's refusal outside a checkout."""

import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from perfbench import gate
from perfbench.workloads import WORKLOADS, build_inputs, one_way_marginals, skewed_two_table

ROOT = Path(__file__).resolve().parents[2]


def _same_instances(first, second):
    return all(
        np.array_equal(a.frequencies, b.frequencies)
        for a, b in zip(first.instance.relations, second.instance.relations)
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    first = build_inputs(name, 7)
    assert _same_instances(first, build_inputs(name, 7))
    assert not _same_instances(first, build_inputs(name, 8))


@pytest.mark.parametrize("name", WORKLOADS)
def test_each_set_up_gets_a_fresh_but_identical_workload(name):
    inputs = build_inputs(name, 7)
    first, second = inputs.make_workload(), inputs.make_workload()
    assert first is not second
    assert [
        [table.weights.tobytes() for table in query.table_queries] for query in first
    ] == [[table.weights.tobytes() for table in query.table_queries] for query in second]


def test_skewed_two_table_keeps_the_degree_profile_across_seeds():
    query = repro.two_table_query(16, 12, 8)
    sizes = {
        (repro.join_size(instance), repro.local_sensitivity(instance))
        for instance in (skewed_two_table(np.random.default_rng(seed), query, 500, 1.2)
                         for seed in range(4))
    }
    assert len(sizes) == 1


@pytest.fixture(scope="module")
def released():
    query = repro.two_table_query(4, 6, 4)
    instance = skewed_two_table(np.random.default_rng(0), query, 300, 1.2)
    workload = one_way_marginals(query)
    result = repro.release_synthetic_data(
        instance, workload, 1.0, 1e-6, seed=5, pmw_config=repro.PMWConfig(num_iterations=3)
    )
    return result, query.shape


def _problems(result, shape, histogram=None, epsilon=1.0, reference=None):
    if histogram is not None:
        # SyntheticDataset itself refuses negative cells, so hand the gate a
        # stand-in carrying just what it reads.
        result = SimpleNamespace(
            synthetic=SimpleNamespace(histogram=histogram), privacy=result.privacy
        )
    return gate.release_problems(
        result, epsilon=epsilon, delta=1e-6, shape=shape, reference=reference
    )


def test_gate_passes_a_release_and_its_repeat(released):
    result, shape = released
    histogram = result.synthetic.histogram
    assert _problems(result, shape, reference=histogram.copy()) == []


def test_gate_rejects_a_perturbed_histogram(released):
    result, shape = released
    reference = result.synthetic.histogram.copy()
    nudged = reference.copy()
    nudged.flat[0] = np.nextafter(nudged.flat[0], np.inf)
    negative = reference.copy()
    negative.flat[1] = -1.0
    broken = reference.copy()
    broken.flat[2] = np.nan
    assert "bitwise" in " ".join(_problems(result, shape, nudged, reference=reference))
    assert "negative" in " ".join(_problems(result, shape, negative))
    assert "non-finite" in " ".join(_problems(result, shape, broken))
    assert "privacy" in " ".join(_problems(result, shape, epsilon=2.0))


def test_linf_error_rel_is_scaled_by_the_largest_true_answer():
    assert gate.linf_error_rel(np.array([10.0, -40.0]), np.array([12.0, -30.0])) == 0.25
    assert gate.linf_error_rel(np.array([0.5]), np.array([0.0])) == 0.5


def test_runner_fails_without_printing_where_the_library_is_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
