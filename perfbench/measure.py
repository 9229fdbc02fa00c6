"""One run of one workload: set-ups, releases, the gate, and the metrics.

The untraced run reports the end-to-end metrics.  The traced run repeats
the same steps with spans and reports the per-layer metrics instead; it
alternates untraced and traced releases of the same seed, so the tracing
overhead and the bitwise equality of traced and untraced outputs come from
one process.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import repro
from perfbench import gate, layers
from perfbench.spans import Tracer
from perfbench.workloads import RELEASE_SEEDS, Inputs

#: Set-ups per run, at least; more while the run is within its set-up share.
MIN_SETUPS = 3
SETUP_SHARE = 0.1
#: Traced runs time untraced/traced release pairs, at least this many.
MIN_TRACED_PAIRS = 2
#: ``release.unattributed_s`` may be at most this share of the traced release.
MAX_UNATTRIBUTED_SHARE = 0.05


class Run:
    """The state of one run; ``problems`` lists every failed check."""

    def __init__(self, inputs: Inputs, seconds: float, tracer: Tracer | None = None):
        self.inputs = inputs
        self.seconds = seconds
        self.tracer = tracer
        self.started = time.perf_counter()
        self.setup_times: list[float] = []
        self.release_times: list[float] = []
        self.traced_times: list[float] = []
        self.traced_labels: list[str] = []
        self.references: dict[int, np.ndarray] = {}
        self.errors: dict[int, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.evaluator = None
        self.workload = None
        self.true_answers: np.ndarray | None = None

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    # -- set-up ------------------------------------------------------------
    def set_up(self) -> None:
        """Time fresh set-ups; the last one's warm evaluator serves the releases."""
        zeros = np.zeros(self.inputs.instance.query.shape)
        while len(self.setup_times) < MIN_SETUPS or self.elapsed() < SETUP_SHARE * self.seconds:
            self.evaluator = self.workload = None
            self.workload = self.inputs.make_workload()
            gc.collect()
            if self.tracer is None:
                start = time.perf_counter()
                self.evaluator = repro.shared_evaluator(self.workload)
                self.evaluator.answers_on_histogram(zeros)
                self.setup_times.append(time.perf_counter() - start)
                continue
            self.tracer.release = f"setup{len(self.setup_times)}"
            with self.tracer.span("setup") as span:
                self.evaluator = repro.shared_evaluator(self.workload)
                with self.tracer.span("queries.choose"):
                    self.evaluator.mode  # resolves the backend (dense builds its matrix)
                with self.tracer.span("queries.build"):
                    self.evaluator.answers_on_histogram(zeros)
            self.setup_times.append(span.duration)
        self.true_answers = self.evaluator.answers_on_instance(self.inputs.instance)

    # -- releases ----------------------------------------------------------
    def _release(self, seed: int) -> repro.ReleaseResult:
        inputs = self.inputs
        return repro.release_synthetic_data(
            inputs.instance,
            self.workload,
            inputs.epsilon,
            inputs.delta,
            method=inputs.method,
            seed=seed,
            pmw_config=inputs.pmw_config,
        )

    def release(self, seed: int, label: str | None = None) -> float | None:
        """One gated release, traced under ``label`` if given.

        Returns its wall time, or ``None`` when it failed.
        """
        self.attempted += 1
        gc.collect()
        wrappers = None
        try:
            if label is not None:
                self.tracer.release = label
                wrappers = layers.install(self.tracer, self.evaluator)
                with self.tracer.span("release") as span:
                    result = self._release(seed)
                elapsed = span.duration
            else:
                start = time.perf_counter()
                result = self._release(seed)
                elapsed = time.perf_counter() - start
        except Exception:  # a failed release is counted, never dropped
            self.failed += 1
            self.problems.append(f"release with seed {seed} raised:\n{traceback.format_exc()}")
            return None
        finally:
            if wrappers is not None:
                wrappers.uninstall()
        histogram = np.asarray(result.synthetic.histogram)
        problems = gate.release_problems(
            result,
            epsilon=self.inputs.epsilon,
            delta=self.inputs.delta,
            shape=self.inputs.instance.query.shape,
            reference=self.references.get(seed),
        )
        if problems:
            self.failed += 1
            self.problems.extend(f"seed {seed}: {problem}" for problem in problems)
            return None
        if seed not in self.references:
            self.references[seed] = histogram
            released = self.evaluator.answers_on_histogram(histogram)
            self.errors[seed] = gate.linf_error_rel(self.true_answers, released)
        return elapsed

    def _more(self, done: int, at_least: int) -> bool:
        return done < at_least or self.elapsed() < self.seconds

    def releases(self) -> None:
        """One untimed release, then timed ones cycling through the release seeds."""
        seeds = RELEASE_SEEDS
        self.release(seeds[0])
        index = 0
        while self._more(index, len(seeds)):
            elapsed = self.release(seeds[index % len(seeds)])
            if elapsed is not None:
                self.release_times.append(elapsed)
            index += 1

    def traced_releases(self) -> None:
        """One untimed release, then untraced/traced pairs of the same seed."""
        seeds = RELEASE_SEEDS
        self.release(seeds[0])
        index = 0
        while self._more(index, MIN_TRACED_PAIRS):
            seed = seeds[index % len(seeds)]
            label = f"release{index}"
            untraced = self.release(seed)
            traced = self.release(seed, label)
            if untraced is not None and traced is not None:
                self.release_times.append(untraced)
                self.traced_times.append(traced)
                self.traced_labels.append(label)
            index += 1

    # -- metrics -----------------------------------------------------------
    def end_to_end(self) -> dict[str, dict]:
        return {
            "setup_s": {"value": statistics.median(self.setup_times), "unit": "s"},
            "release_s": {"value": statistics.median(self.release_times), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
            "linf_error_rel": {"value": statistics.median(self.errors.values()), "unit": "ratio"},
        }

    def per_layer(self, layer_map: dict) -> dict[str, dict]:
        """Medians over the traced set-ups and releases, checked against the layer map."""
        setups = [
            layers.setup_metrics(self.tracer, f"setup{index}")
            for index in range(len(self.setup_times))
        ]
        releases = [layers.release_metrics(self.tracer, label) for label in self.traced_labels]
        values = {name: statistics.median(row[name] for row in setups) for name in setups[0]}
        values.update(
            {name: statistics.median(row[name] for row in releases) for name in releases[0]}
        )
        values["queries.support_entries"] = self.evaluator.total_support_size()
        values["queries.resident_mib"] = self.evaluator.estimated_memory() / 2**20
        traced = statistics.median(self.traced_times)
        values["trace.overhead"] = traced / statistics.median(self.release_times) - 1.0

        units = {entry["name"]: entry["unit"] for entry in layer_map["per_layer"]}
        if set(values) != set(units):
            self.problems.append(f"per-layer metrics {sorted(set(values) ^ set(units))} "
                                 "are not both measured and in the layer map")
        for entry in layer_map["per_layer"]:
            if self.inputs.name in entry["fires_on"] and not values.get(entry["name"]):
                self.problems.append(f"{entry['name']} did not fire on {self.inputs.name}")
        if values["release.unattributed_s"] > MAX_UNATTRIBUTED_SHARE * traced:
            self.problems.append(
                f"release.unattributed_s {values['release.unattributed_s']:.4f} s is over "
                f"{MAX_UNATTRIBUTED_SHARE:.0%} of the traced release ({traced:.4f} s)"
            )
        return {name: {"value": value, "unit": units.get(name, "")} for name, value in values.items()}


def peak_rss_mib() -> float:
    """Peak resident set of this process; Linux reports ``ru_maxrss`` in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def execute(inputs: Inputs, seconds: float, traced: bool) -> tuple[dict, Run]:
    """Run one workload and return the result object and the run."""
    layer_map = layers.load_layer_map() if traced else None
    run = Run(inputs, seconds, Tracer() if traced else None)
    run.set_up()
    if traced:
        run.traced_releases()
    else:
        run.releases()
    if not run.release_times:
        raise RuntimeError("no release succeeded:\n" + "\n".join(run.problems))
    metrics = run.per_layer(layer_map) if traced else run.end_to_end()
    for problem in run.problems:
        print(problem, file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, run
