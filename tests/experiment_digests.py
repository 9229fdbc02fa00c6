#!/usr/bin/env python3
"""Print one digest line per experiment run, to compare two checkouts.

Run it from the root of a source checkout::

    python tests/experiment_digests.py

For every ``repro.experiments.EXPERIMENTS`` id at seeds 0, 1 and 2 it prints
the id, the seed and the sha256 of the table's raw rows (JSON, floats at full
precision); the last line is the sha256 of all those lines.  The printed
tables show three significant figures, so a change in the last digits shows
here and not there.  E12's ``runtime`` column is wall-clock time, the only
value the seed does not fix, so it is left out.  A change meant to leave every
experiment's values the same runs this in both checkouts and diffs the two
outputs.  BLAS and OpenMP are pinned to one thread before numpy loads, as
``perfbench/run.py`` pins them, and the library is imported from this
checkout's ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2)
UNSEEDED_COLUMNS = {"e12": ("runtime",)}


def _plain(value: object) -> object:
    """numpy scalars as the Python values they hold; JSON takes the rest as is."""
    return value.item()


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import THREAD_VARIABLES

    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    from repro.experiments import EXPERIMENTS

    lines = []
    for name, run in EXPERIMENTS.items():
        dropped = UNSEEDED_COLUMNS.get(name, ())
        for seed in SEEDS:
            rows = [
                {key: value for key, value in row.items() if key not in dropped}
                for row in run(seed=seed)["table"].rows
            ]
            encoded = json.dumps(rows, ensure_ascii=False, default=_plain)
            digest = hashlib.sha256(encoded.encode()).hexdigest()
            lines.append(f"{name} seed={seed} sha256={digest}")
            print(lines[-1], flush=True)
    overall = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"all {len(lines)} tables sha256={overall}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
