"""The traced run's wrappers, per-layer metrics and layer map, on a small release."""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.sensitivity.residual import _simplex_points, certified_cutoff

from perfbench import gate, layers
from perfbench.spans import Tracer
from perfbench.workloads import one_way_marginals, skewed_two_table

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def small():
    query = repro.two_table_query(4, 6, 4)
    instance = skewed_two_table(np.random.default_rng(0), query, 300, 1.2)
    workload = one_way_marginals(query)
    evaluator = repro.shared_evaluator(workload)
    evaluator.answers_on_histogram(np.zeros(query.shape))
    return instance, workload, evaluator


def _release(instance, workload, method="auto"):
    return repro.release_synthetic_data(
        instance, workload, 1.0, 1e-6, method=method, seed=3,
        pmw_config=repro.PMWConfig(num_iterations=4),
    )


def test_uninstall_restores_every_wrapped_call(small):
    _, _, evaluator = small
    originals = {
        (module, attribute): getattr(importlib.import_module(module), attribute)
        for module, attribute, _ in layers.FUNCTION_SPANS
    }
    wrappers = layers.install(Tracer(), evaluator)
    try:
        for (module, attribute), original in originals.items():
            assert getattr(importlib.import_module(module), attribute) is not original
        assert "histogram_session" in vars(evaluator)
    finally:
        wrappers.uninstall()
    for (module, attribute), original in originals.items():
        assert getattr(importlib.import_module(module), attribute) is original
    for method in (*layers.EVALUATOR_SPANS, "histogram_session"):
        assert method not in vars(evaluator)


@pytest.mark.parametrize("method", ["auto", "uniformize_two_table"])
def test_traced_release_is_bitwise_the_untraced_one_and_fires_its_layers(small, method):
    instance, workload, evaluator = small
    untraced = _release(instance, workload, method)
    tracer = Tracer()
    tracer.release = "release0"
    wrappers = layers.install(tracer, evaluator)
    try:
        with tracer.span("release"):
            traced = _release(instance, workload, method)
    finally:
        wrappers.uninstall()
    assert gate.bitwise_equal(traced.synthetic.histogram, untraced.synthetic.histogram)

    metrics = layers.release_metrics(tracer, "release0")
    runs = metrics["core.pmw_runs"]
    assert runs >= 1
    assert metrics["core.pmw_rounds"] == 4 * runs
    assert metrics["queries.scores_calls"] == 4 * runs
    # Per round: exponential + Laplace draws; per run: the total; per
    # Algorithm 1 call: the sensitivity bound; plus the partition's draw.
    assert metrics["mechanisms.draws"] == 10 * runs + (method != "auto")
    assert metrics["core.partition_buckets"] == (0 if method == "auto" else runs)
    for name in ("queries.update_s", "queries.truth_s", "core.assemble_s", "relational.join_s"):
        assert metrics[name] > 0
    root = next(span for span in tracer.spans if span.name == "release")
    assert sum(metrics[name] for name in metrics if name.endswith("_s")) == pytest.approx(
        root.duration
    )


def test_residual_rows_count_the_enumerated_simplex():
    query = repro.chain_query([3] * 4)
    instance = repro.Instance.from_frequencies(
        query, {schema.name: np.ones(schema.shape, dtype=int) for schema in query.relations}
    )
    tracer = Tracer()
    wrappers = layers.install(tracer, repro.shared_evaluator(one_way_marginals(query)))
    try:
        importlib.import_module("repro.core.multi_table").residual_sensitivity(instance, 0.5)
    finally:
        wrappers.uninstall()
    enumerated = _simplex_points(2, certified_cutoff(3, 0.5))
    assert tracer.counts[("", "sensitivity.residual_rows")] == len(enumerated)


def test_layer_map_matches_the_metrics_and_benchmark_json():
    layer_map = layers.load_layer_map()
    names = [entry["name"] for entry in layer_map["per_layer"]]
    measured = {
        *layers.setup_metrics(Tracer(), ""),
        *layers.release_metrics(Tracer(), ""),
        "queries.support_entries",
        "queries.resident_mib",
        "trace.overhead",
    }
    assert len(names) == len(set(names))
    assert set(names) == measured
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (e["name"], e["unit"], e["better"]) for e in layer_map["per_layer"]
    ]
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == [
        (e["name"], e["unit"]) for e in layer_map["end_to_end"]
    ]
    workloads = {w["name"] for w in declared["workloads"]}
    for entry in layer_map["per_layer"]:
        assert set(entry["fires_on"]) <= workloads
        assert set(entry["moves"]) <= {m["name"] for m in declared["end_to_end"]}
