"""The experiment harness: one module per reproduced paper artefact.

Every experiment (``E1 ... E14`` and ``E20``) lives in its own module, whose
docstring names the paper artefact it reproduces, with a ``run(...)`` function
returning a dictionary that always contains a ``"table"`` entry (an
:class:`repro.analysis.reporting.ExperimentTable`) plus experiment-specific raw
values that the benchmark suite asserts on.  The CLI (``python -m repro.cli``)
and the ``benchmarks/`` directory are both thin wrappers around these
functions, so every table can be regenerated from either entry point.

The :data:`EXPERIMENTS` registry exposes each runner through a telemetry
wrapper: while :func:`repro.telemetry.configure` has recording on, the whole
run becomes an ``experiment.<id>`` tracing span and the returned dictionary
gains a ``"telemetry"`` entry — the metrics/stage snapshot taken right after
the run.  With telemetry disabled (the default) the wrapper is a
pass-through and results are unchanged.
"""

from repro import telemetry as _telemetry
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
    e20_observability,
)

def _instrumented(name: str, runner):
    """Wrap one experiment runner with the telemetry harness.

    While recording, the run is traced as an ``experiment.<id>`` span and
    the result dictionary gains a ``"telemetry"`` snapshot (metrics, span
    stats, per-stage wall/CPU summaries) taken immediately after the run.
    Disabled, the wrapper adds one boolean check and nothing else — the
    result is byte-for-byte what the raw runner returns.
    """

    def run(*args, **kwargs):
        if not _telemetry.is_enabled():
            return runner(*args, **kwargs)
        with _telemetry.trace(f"experiment.{name}"):
            result = runner(*args, **kwargs)
        if isinstance(result, dict):
            result["telemetry"] = _telemetry.snapshot()
        return result

    run.__name__ = f"run_{name}"
    run.__doc__ = runner.__doc__
    run.__wrapped__ = runner
    return run


_RUNNERS = {
    "e1": e01_flawed_variants.run,
    "e2": e02_two_table_scaling.run,
    "e3": e03_lower_bound_two_table.run,
    "e4": e04_delta_floor.run,
    "e5": e05_multi_table.run,
    "e6": e06_uniformize_two_table.run,
    "e7": e07_example42.run,
    "e8": e08_hierarchical.run,
    "e9": e09_worst_case_agm.run,
    "e10": e10_conforming.run,
    "e11": e11_baseline_composition.run,
    "e12": e12_tpch.run,
    "e13": e13_single_table_pmw.run,
    "e14": e14_privacy_audit.run,
    "e20": e20_observability.run,
}

EXPERIMENTS = {name: _instrumented(name, runner) for name, runner in _RUNNERS.items()}

DESCRIPTIONS = {
    "e1": "Figure 1 / Example 3.1 — flawed join-as-one variants leak, Algorithm 1 does not",
    "e2": "Theorem 3.3 — two-table error scaling in OUT and Δ",
    "e3": "Figure 2 / Theorem 3.5 — hard-instance reduction lower bound",
    "e4": "Theorem 3.4 — Ω(Δ) error floor on the counting query",
    "e5": "Theorem 1.5 / Algorithm 3 — multi-table error vs residual sensitivity",
    "e6": "Figure 3 / Theorem 4.4 — uniformized two-table vs join-as-one",
    "e7": "Example 4.2 — k^(1/3) improvement of uniformization",
    "e8": "Figure 4 / Theorem C.2 — hierarchical partition and release",
    "e9": "Appendix B.3 — worst-case sensitivity/error vs the AGM bound",
    "e10": "Theorem 4.5 — conforming instances and the per-bucket bound",
    "e11": "Section 1.2 — synthetic data vs per-query Laplace composition",
    "e12": "TPC-H-style end-to-end workloads",
    "e13": "Theorem 1.3 — single-table PMW sanity",
    "e14": "Lemmas 3.2/3.7/4.1 — empirical privacy audit",
    "e20": "Observability — hash-chained audit journal, live scrape endpoints, overhead",
}

__all__ = ["EXPERIMENTS", "DESCRIPTIONS"]
