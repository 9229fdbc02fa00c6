"""The library calls the traced run wraps, and the per-layer metrics they give.

Each wrapped call becomes a span named after its layer; a layer's time is
the summed self time of its spans within one release (or one set-up), and
its ``_calls`` count is the number of those spans.  ``layer_map.json`` names
every per-layer metric, its unit, the end-to-end metric it should move and
the workloads on which it must be non-zero.
"""

from __future__ import annotations

import importlib
import json
from math import comb
from pathlib import Path

from repro.sensitivity.residual import certified_cutoff

from perfbench.spans import Tracer, Wrappers, totals_by_name, traced, traced_iterator

#: (calling module, attribute, span name) of every library function timed.
FUNCTION_SPANS = (
    ("repro.core.release", "two_table_release", "core.algorithm"),
    ("repro.core.release", "multi_table_release", "core.algorithm"),
    ("repro.core.release", "uniformize_release", "core.algorithm"),
    ("repro.core.uniformize", "two_table_release", "core.algorithm"),
    ("repro.core.uniformize", "partition_two_table", "core.partition"),
    ("repro.core.two_table", "private_multiplicative_weights", "core.pmw"),
    ("repro.core.multi_table", "private_multiplicative_weights", "core.pmw"),
    ("repro.core.pmw", "assemble_flat_histogram", "core.assemble"),
    ("repro.core.multi_table", "residual_sensitivity", "sensitivity.residual"),
    ("repro.core.two_table", "local_sensitivity", "sensitivity.local"),
    ("repro.core.two_table", "truncated_laplace_mechanism", "mechanisms.draw"),
    ("repro.core.multi_table", "sample_truncated_laplace", "mechanisms.draw"),
    ("repro.core.partition_two_table", "sample_truncated_laplace", "mechanisms.draw"),
    ("repro.core.pmw", "sample_truncated_laplace", "mechanisms.draw"),
    ("repro.core.pmw", "exponential_mechanism", "mechanisms.draw"),
    ("repro.core.pmw", "sample_laplace", "mechanisms.draw"),
    ("repro.core.pmw", "join_size", "relational.join"),
)

#: Evaluator methods timed, wrapped on the benchmark's warm evaluator.
EVALUATOR_SPANS = {
    "answers_on_instance": "queries.truth",
    "query_support": "queries.support",
}

#: Histogram-session ops, wrapped on each session ``histogram_session`` returns.
SESSION_SPANS = {
    "answers": "queries.scores",
    "scale_support": "queries.update",
    "scale": "queries.update",
    "total": "queries.update",
    "fill": "queries.update",
    "accumulate": "queries.update",
    "close": "queries.session",
}


def load_layer_map() -> dict:
    return json.loads(Path(__file__).with_name("layer_map.json").read_text())


def _count_rounds(tracer: Tracer):
    return lambda args, kwargs, result: tracer.count("core.pmw_rounds", result.iterations)


def _count_buckets(tracer: Tracer):
    return lambda args, kwargs, result: tracer.count("core.partition_buckets", result.num_buckets)


def _count_residual_rows(tracer: Tracer):
    """Rows enumerated: vectors of length m-1 summing to at most the cutoff K."""

    def after(args, kwargs, result):
        instance = args[0]
        beta = args[1] if len(args) > 1 else kwargs["beta"]
        parts = instance.query.num_relations - 1
        cutoff = kwargs.get("k_max")
        if cutoff is None:
            cutoff = certified_cutoff(parts + 1, beta)
        tracer.count("sensitivity.residual_rows", comb(cutoff + parts, parts))

    return after


_COUNTERS = {
    "core.pmw": _count_rounds,
    "core.partition": _count_buckets,
    "sensitivity.residual": _count_residual_rows,
}


def _wrap_session(tracer: Tracer, session) -> None:
    for op, span in SESSION_SPANS.items():
        setattr(session, op, traced(tracer, span, getattr(session, op)))
    session.averaged_slices = traced_iterator(tracer, "queries.session", session.averaged_slices)


def install(tracer: Tracer, evaluator) -> Wrappers:
    """Wrap every timed call; the caller must ``uninstall()`` the result."""
    wrappers = Wrappers()
    for module_name, attribute, span in FUNCTION_SPANS:
        counter = _COUNTERS.get(span)
        after = counter(tracer) if counter else None
        wrappers.replace(
            importlib.import_module(module_name),
            attribute,
            lambda function, span=span, after=after: traced(tracer, span, function, after),
        )
    for method, span in EVALUATOR_SPANS.items():
        wrappers.replace(
            evaluator, method, lambda function, span=span: traced(tracer, span, function)
        )
    wrappers.replace(
        evaluator,
        "histogram_session",
        lambda function: traced(
            tracer,
            "queries.session",
            function,
            lambda args, kwargs, session: _wrap_session(tracer, session),
        ),
    )
    return wrappers


def setup_metrics(tracer: Tracer, release: str) -> dict[str, float]:
    """Per-layer metrics of one traced set-up."""
    totals = totals_by_name(tracer.spans, release)
    return {
        "queries.choose_s": totals.get("queries.choose", (0.0, 0))[0],
        "queries.build_s": totals.get("queries.build", (0.0, 0))[0],
    }


def release_metrics(tracer: Tracer, release: str) -> dict[str, float]:
    """Per-layer metrics of one traced release (its root span is ``release``)."""
    totals = totals_by_name(tracer.spans, release)

    def seconds(name: str) -> float:
        return totals.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return totals.get(name, (0.0, 0))[1]

    def counted(name: str) -> float:
        return tracer.counts.get((release, name), 0)

    return {
        "queries.scores_s": seconds("queries.scores"),
        "queries.scores_calls": calls("queries.scores"),
        "queries.update_s": seconds("queries.update"),
        "queries.update_calls": calls("queries.update"),
        "queries.support_s": seconds("queries.support"),
        "queries.truth_s": seconds("queries.truth"),
        "queries.session_s": seconds("queries.session"),
        "core.pmw_s": seconds("core.pmw"),
        "core.pmw_runs": calls("core.pmw"),
        "core.pmw_rounds": counted("core.pmw_rounds"),
        "core.algorithm_s": seconds("core.algorithm"),
        "core.partition_s": seconds("core.partition"),
        "core.partition_buckets": counted("core.partition_buckets"),
        "core.assemble_s": seconds("core.assemble"),
        "sensitivity.residual_s": seconds("sensitivity.residual"),
        "sensitivity.residual_calls": calls("sensitivity.residual"),
        "sensitivity.residual_rows": counted("sensitivity.residual_rows"),
        "sensitivity.local_s": seconds("sensitivity.local"),
        "mechanisms.draw_s": seconds("mechanisms.draw"),
        "mechanisms.draws": calls("mechanisms.draw"),
        "relational.join_s": seconds("relational.join"),
        "release.unattributed_s": seconds("release"),
    }
