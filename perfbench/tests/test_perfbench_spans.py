"""Self time, per-release totals and wrapper bookkeeping of the span recorder."""

import itertools
import json
import types

import pytest

from perfbench.spans import (
    Span,
    Tracer,
    Wrappers,
    self_times,
    totals_by_name,
    traced,
    traced_iterator,
    write_chrome_trace,
)


def test_self_time_on_a_hand_built_tree_with_nested_same_name_spans():
    spans = [
        Span(0, "release", None, "r", 0.0, 10.0),
        Span(1, "algorithm", 0, "r", 1.0, 4.0),
        Span(2, "algorithm", 1, "r", 2.0, 3.0),
        Span(3, "pmw", 0, "r", 5.0, 9.0),
        # Overlaps its sibling: only the uncovered 9.0..9.5 may count again.
        Span(4, "draw", 0, "r", 8.0, 9.5),
    ]
    assert self_times(spans) == pytest.approx({0: 2.5, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.5})
    totals = totals_by_name(spans, "r")
    assert totals["algorithm"] == pytest.approx((3.0, 2))
    assert totals["release"] == pytest.approx((2.5, 1))


def test_tracer_nests_spans_and_keeps_releases_apart():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.release = "a"
    with tracer.span("outer"):
        with tracer.span("outer"):
            tracer.count("rounds", 3)
    tracer.release = "b"
    with tracer.span("outer"):
        pass
    outer, inner, other = tracer.spans
    assert (outer.parent, inner.parent, other.parent) == (None, 0, None)
    assert (outer.start, inner.start, inner.end, outer.end) == (0.0, 1.0, 2.0, 3.0)
    assert totals_by_name(tracer.spans, "a") == {"outer": (3.0, 2)}
    assert totals_by_name(tracer.spans, "b") == {"outer": (1.0, 1)}
    assert tracer.counts == {("a", "rounds"): 3}


def test_uninstall_restores_module_functions_and_inherited_methods():
    class Session:
        def answers(self):
            return 42

    module = types.ModuleType("fake")
    module.helper = lambda value: value + 1
    original_helper = module.helper
    session = Session()
    tracer = Tracer()
    wrappers = Wrappers()
    wrappers.replace(module, "helper", lambda f: traced(tracer, "helper", f))
    wrappers.replace(session, "answers", lambda f: traced(tracer, "scores", f))
    assert module.helper is not original_helper
    assert (module.helper(1), session.answers()) == (2, 42)
    assert [span.name for span in tracer.spans] == ["helper", "scores"]

    wrappers.uninstall()
    assert module.helper is original_helper
    assert "answers" not in vars(session)
    assert session.answers.__func__ is Session.answers


def test_traced_iterator_times_each_step_where_the_work_happens():
    tracer = Tracer()

    def slices():
        yield from (1, 2, 3)

    with tracer.span("assemble"):
        items = list(traced_iterator(tracer, "session", slices)())
    assert items == [1, 2, 3]
    names = [span.name for span in tracer.spans]
    # One span for the call, one per item and one for the exhausting step,
    # all children of the consumer.
    assert names == ["assemble"] + ["session"] * 5
    assert {span.parent for span in tracer.spans[1:]} == {0}


def test_chrome_trace_round_trips(tmp_path):
    tracer = Tracer()
    tracer.release = "release0"
    with tracer.span("release"):
        with tracer.span("core.pmw"):
            pass
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer, path, {"workload": "w"})
    data = json.loads(path.read_text())
    assert [event["name"] for event in data["traceEvents"]] == ["release", "core.pmw"]
    assert data["traceEvents"][1]["args"] == {"id": 1, "parent": 0, "release": "release0"}
    assert data["metadata"] == {"workload": "w"}
