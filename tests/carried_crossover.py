#!/usr/bin/env python3
"""Time a full evaluation against a carried answer change, shape by shape.

Run it from the root of a source checkout::

    python tests/carried_crossover.py

A PMW round either evaluates the workload in full (``session.answers()``)
or carries the answers from how its support update moves them
(``WorkloadEvaluator._answer_change``).  ``_MATRIX_CELL_BUDGET`` in
``src/repro/queries/evaluation.py`` picks between the two by the matrix
cells ``|Q|·|D|``.  This prints, per workload shape, ``|Q|·|D|``, the time
of one full evaluation and of one answer change, each the minimum over 3
repeats of 300 in-process calls (the changes cycle over the workload's
boxes that are neither empty nor the whole domain, with a change of one on
every cell), and which is faster.  Its last lines name the largest shape on
which a full evaluation is faster and the smallest power of two above it.

The shapes are the evaluator tests' joins times their query generators
(``tests/queries/test_factored_evaluation.py``), one-way marginals over
``R1(A, B) ⋈ R2(B, C)`` at ``n³`` and over 5-attribute chains, and the
release benchmark's two-table marginals.  A shape with no partial box never
carries and is left out.  BLAS and OpenMP are pinned to one thread before
numpy loads, as ``perfbench/run.py`` pins them.
"""

from __future__ import annotations

import os
import sys
import timeit
from math import prod
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLS, REPEATS = 300, 3


def _shapes():
    """``(name, workload)`` of every shape on the grid."""
    from test_factored_evaluation import GENERATORS, JOINS, _workload

    from repro.queries.workload import Workload
    from repro.relational.hypergraph import chain_query, two_table_query

    def one_way_marginals(query):
        first, *rest = query.attribute_names
        workload = Workload.attribute_marginals(query, first)
        for name in rest:
            workload = workload.extended(
                Workload.attribute_marginals(query, name, include_counting=False).queries
            )
        return workload

    for join, query in JOINS.items():
        for generator in GENERATORS:
            yield f"{join} {generator}", _workload(query, generator)
    for size in (8, 16, 24, 32, 48):
        yield f"two_table {size}^3 marginals", one_way_marginals(two_table_query(*[size] * 3))
    for size in (4, 6, 8, 10):
        yield f"chain {size}^5 marginals", one_way_marginals(chain_query([size] * 5))
    yield "two_table 128x64x128 marginals", one_way_marginals(two_table_query(128, 64, 128))


def _microseconds(call) -> float:
    return min(timeit.repeat(call, number=CALLS, repeat=REPEATS)) / CALLS * 1e6


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests" / "queries")]
    from perfbench.run import THREAD_VARIABLES

    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    import numpy as np

    from repro.queries.evaluation import WorkloadEvaluator

    rows = []
    for name, workload in _shapes():
        evaluator = WorkloadEvaluator(workload)
        shape = workload.join_query.shape
        boxes = []
        for index in range(len(workload)):
            box, _ = evaluator.query_support(index)
            on_box = np.empty(shape)[box].shape
            if 0 < prod(on_box) < evaluator.domain_size:
                boxes.append((box, np.ones(on_box)))
        if not boxes:
            continue
        session = evaluator.histogram_session(np.random.default_rng(0).random(shape))
        full = _microseconds(session.answers)
        cycle = iter(boxes * (CALLS * REPEATS // len(boxes) + 1))
        carried = _microseconds(lambda: evaluator._answer_change(*next(cycle)))
        cells = evaluator.num_queries * evaluator.domain_size
        rows.append((cells, name, full, carried))
        faster = "full" if full < carried else "carried"
        print(f"{name:40s} |Q|·|D| = {cells:>11,}  full {full:9.1f} µs  "
              f"carried {carried:9.1f} µs  {faster}", flush=True)
    cells, name, _, _ = max(row for row in rows if row[2] < row[3])
    print(f"largest shape where a full evaluation is faster: {name}, |Q|·|D| = {cells:,}")
    print(f"smallest power of two above it: 2**{cells.bit_length()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
