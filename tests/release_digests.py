#!/usr/bin/env python3
"""Print one digest line per benchmark release, to compare two checkouts.

Run it from the root of a source checkout::

    python tests/release_digests.py

For every workload of ``perfbench.workloads``, data seeds 1–3 and each of
its ``RELEASE_SEEDS`` it prints the workload, the two seeds, the sha256 of
the released histogram's bytes and the reported (ε, δ); the last line is
the sha256 of all those lines.  A change meant to leave every benchmark
release bitwise the same runs this in both checkouts and diffs the two
outputs.  BLAS and OpenMP are pinned to one thread before numpy loads, as
``perfbench/run.py`` pins them, and the library is imported from this
checkout's ``src/``.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA_SEEDS = (1, 2, 3)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import THREAD_VARIABLES

    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    import numpy as np

    import repro
    from perfbench.workloads import RELEASE_SEEDS, WORKLOADS, build_inputs

    lines = []
    for name in WORKLOADS:
        for data_seed in DATA_SEEDS:
            inputs = build_inputs(name, data_seed)
            workload = inputs.make_workload()
            for release_seed in RELEASE_SEEDS:
                result = repro.release_synthetic_data(
                    inputs.instance,
                    workload,
                    inputs.epsilon,
                    inputs.delta,
                    method=inputs.method,
                    seed=release_seed,
                    pmw_config=inputs.pmw_config,
                )
                histogram = np.ascontiguousarray(result.synthetic.histogram)
                digest = hashlib.sha256(histogram.tobytes()).hexdigest()
                privacy = result.privacy
                lines.append(
                    f"{name} data_seed={data_seed} release_seed={release_seed} "
                    f"sha256={digest} privacy=({privacy.epsilon!r}, {privacy.delta!r})"
                )
                print(lines[-1], flush=True)
    overall = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"all {len(lines)} releases sha256={overall}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
