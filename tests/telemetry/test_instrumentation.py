"""The instrumented call sites, read through spans.

Every noise draw of a mechanism is one ``mechanism.<name>`` span carrying
its parameters, and recording it leaves the draw unchanged.  Snapshots read
while PMW records on another thread are JSON-able, their counts never fall,
one read with a run held open counts exactly the spans that had closed, and
the last one counts the runs, rounds and draws the runs report.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.datagen.random_instances import random_instance
from repro.mechanisms.exponential import exponential_mechanism
from repro.mechanisms.laplace import sample_laplace
from repro.mechanisms.ledger import PrivacyLedger, use_ledger
from repro.mechanisms.truncated_laplace import sample_truncated_laplace, truncation_radius
from repro.queries.workload import Workload
from repro.relational.hypergraph import single_table_query

_DRAWS = {
    "laplace": (lambda rng: sample_laplace(2.0, 1.0, rng=rng), {"scale": 2.0}),
    "exponential": (
        lambda rng: exponential_mechanism(np.arange(4.0), 1.0, rng=rng),
        {"candidates": 4},
    ),
    "truncated_laplace": (
        lambda rng: sample_truncated_laplace(1.0, 1.0, 1e-5, rng=rng),
        {"scale": 1.0, "radius": truncation_radius(1.0, 1e-5, 1.0)},
    ),
}


@pytest.mark.parametrize("mechanism", sorted(_DRAWS))
def test_each_draw_is_one_span_and_keeps_its_value(mechanism):
    draw, attrs = _DRAWS[mechanism]
    bare_rng = np.random.default_rng(5)
    bare = [draw(bare_rng) for _ in range(3)]
    telemetry.configure()
    traced_rng = np.random.default_rng(5)
    traced = [draw(traced_rng) for _ in range(3)]
    assert traced == bare
    name = f"mechanism.{mechanism}"
    assert telemetry.snapshot()["stages"][name]["count"] == 3
    assert [span["attrs"] for span in telemetry.span_dicts()] == [attrs] * 3


def test_zero_scale_laplace_adds_no_noise_and_records_no_span():
    telemetry.configure()
    assert sample_laplace(0.0, 1.0, rng=np.random.default_rng(0)) == 0.0
    assert telemetry.snapshot()["stages"] == {}


def test_snapshots_taken_while_pmw_runs_never_count_backwards():
    query = single_table_query({"X": 6, "Y": 6})
    rng = np.random.default_rng(0)
    instance = random_instance(query, 60, rng=rng)
    workload = Workload.random_sign(query, 8, rng=rng)
    runs = 20
    results = []
    halfway, resume = threading.Event(), threading.Event()

    class PausingLedger(PrivacyLedger):
        def charge(self, label, spec, *, parallel_group=None):
            super().charge(label, spec, parallel_group=parallel_group)
            # Each run charges twice before its first round: after this
            # charge runs // 2 - 1 runs have finished and the next one is open.
            if len(self) == runs:
                halfway.set()
                resume.wait(timeout=30)

    ledger = PausingLedger()

    def release():
        with use_ledger(ledger):
            for seed in range(runs):
                results.append(
                    private_multiplicative_weights(
                        instance, workload, 1.0, 1e-5, 1.0, rng=np.random.default_rng(seed),
                        config=PMWConfig(num_iterations=6),
                    )
                )

    def read():
        return json.loads(json.dumps(telemetry.snapshot()))

    telemetry.configure()
    worker = threading.Thread(target=release)
    snapshots = []
    worker.start()
    while not halfway.wait(timeout=0.001):
        assert worker.is_alive()
        snapshots.append(read())
    middle, finished = read(), list(results)
    snapshots.append(middle)
    resume.set()
    while worker.is_alive():
        snapshots.append(read())
        time.sleep(0.001)
    worker.join()
    snapshots.append(read())

    counts = [
        {name: stage["count"] for name, stage in snapshot["stages"].items()}
        for snapshot in snapshots
    ]
    for before, after in zip(counts, counts[1:]):
        assert all(after.get(name, 0) >= count for name, count in before.items())
    recorded = [snapshot["spans"]["recorded"] for snapshot in snapshots]
    assert recorded == sorted(recorded)
    # Read mid-run, the snapshot counts exactly the spans that had closed.
    middle_counts = {name: stage["count"] for name, stage in middle["stages"].items()}
    assert middle_counts["pmw.run"] == len(finished) == runs // 2 - 1
    assert middle_counts["pmw.round"] == sum(result.iterations for result in finished)
    assert middle_counts["mechanism.truncated_laplace"] == runs // 2
    final = counts[-1]
    assert final["pmw.run"] == runs == len(results)
    assert final["pmw.round"] == sum(result.iterations for result in results)
    selections = sum(len(result.selected_queries) for result in results)
    assert final["mechanism.exponential"] == final["mechanism.laplace"] == selections
    assert final["mechanism.truncated_laplace"] == runs
