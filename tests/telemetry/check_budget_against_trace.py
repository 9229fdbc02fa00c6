#!/usr/bin/env python3
"""Check a traced CLI run's printed budget against its Chrome trace.

The ``budget`` of the last ``[<name> telemetry]`` snapshot in OUTPUT is the
run ledger's record; the ``pmw.run`` spans of TRACE record each PMW run's
(ε, δ) apart from the ledger.  Lemma 3.2 charges every run twice, ε/2 and
δ/2 for the noisy total and as much for the rounds, so with R runs the
budget must read R ``pmw.total`` and R ``pmw.rounds`` charges, 2R in all,
and its composed (ε, δ) must equal the runs' summed (ε, δ)::

    python -m repro.cli run e13 --telemetry --trace-out trace.json > e13.out
    python tests/telemetry/check_budget_against_trace.py e13.out trace.json

The trace must also hold every span the snapshot counts, none dropped: PMW
runs and rounds, and for ``run`` the experiment's ``experiment.<name>`` span,
with each ``pmw.round`` inside a ``pmw.run`` on the same thread.  Standard
library only.  Prints one line per problem and exits 1 if there is any, 0
otherwise (2 on a wrong number of arguments).
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter

_HEADER_END = " telemetry]\n"


def _last_snapshot(output: str) -> tuple[str, dict] | None:
    """The last ``[<name> telemetry]`` header's name and the JSON snapshot after it."""
    end = output.rfind(_HEADER_END)
    if end < 0:
        return None
    name = output[output.rfind("[", 0, end) + 1 : end]
    return name, json.JSONDecoder().raw_decode(output, end + len(_HEADER_END))[0]


def _inside(inner: dict, outer: dict) -> bool:
    return (
        (inner["pid"], inner["tid"]) == (outer["pid"], outer["tid"])
        and outer["ts"] <= inner["ts"]
        and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6
    )


def problems(output: str, trace: dict) -> list[str]:
    """Every way the printed budget and the trace disagree (empty if none)."""
    last = _last_snapshot(output)
    if last is None:
        return ["no telemetry snapshot in the output"]
    name, snapshot = last
    budget = snapshot["budget"]
    events = trace["traceEvents"]
    found = []
    if trace["metadata"]["dropped"]:
        found.append(f"the trace dropped {trace['metadata']['dropped']} span(s)")
    counted = {span: stage["count"] for span, stage in snapshot["stages"].items()}
    traced = dict(Counter(event["name"] for event in events))
    if traced != counted:
        found.append(f"trace spans {traced} != snapshot stages {counted}")
    required = {"pmw.run", "pmw.round"}
    if name != "demo":  # `run` wraps each experiment in its span
        required.add(f"experiment.{name}")
    if not required <= traced.keys():
        found.append(f"the trace lacks {sorted(required - traced.keys())}")
    runs = [event for event in events if event["name"] == "pmw.run"]
    expected = {"pmw.total": len(runs), "pmw.rounds": len(runs)}
    if budget["labels"] != expected or budget["charges"] != 2 * len(runs):
        found.append(
            f"{len(runs)} pmw.run span(s) need charges {expected}, "
            f"{2 * len(runs)} in all; the budget reads {budget['labels']}, "
            f"{budget['charges']} in all"
        )
    for key in ("epsilon", "delta"):
        traced_sum = math.fsum(run["args"][key] for run in runs)
        if budget[key] is None or not math.isclose(budget[key], traced_sum, rel_tol=1e-12):
            found.append(f"budget {key} {budget[key]} != pmw.run spans' sum {traced_sum}")
    for event in events:
        if event["name"] == "pmw.round" and not any(_inside(event, run) for run in runs):
            found.append(f"pmw.round outside every pmw.run: {event}")
    return found


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print("usage: check_budget_against_trace.py OUTPUT TRACE", file=sys.stderr)
        return 2
    output_path, trace_path = paths
    with open(output_path, encoding="utf-8") as handle:
        output = handle.read()
    with open(trace_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    found = problems(output, trace)
    for problem in found:
        print(problem, file=sys.stderr)
    if found:
        return 1
    budget = _last_snapshot(output)[1]["budget"]
    print(
        f"budget equals the trace: {budget['charges']} charges, "
        f"ε = {budget['epsilon']}, δ = {budget['delta']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
