"""The library needs numpy and the standard library, nothing else.

A fresh interpreter whose ``sys.meta_path`` refuses every top-level module
but the standard library's, numpy and ``repro`` imports each ``repro``
module, runs the carried 12-round PMW loop and one release per method, and
then holds no top-level third-party module it did not hold before but
numpy (site's ``.pth`` files may load some, such as ``_distutils_hack``,
before the script runs).  scipy serves only E9's edge-cover LP, which
imports it when it runs.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SCRIPT = textwrap.dedent(
    """
    import importlib, importlib.abc, json, pkgutil, sys

    ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}

    class NumpyOnly(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] not in ALLOWED:
                raise ImportError(f"{name} is blocked")
            return None

    before = {name.partition(".")[0] for name in sys.modules}
    sys.meta_path.insert(0, NumpyOnly())

    import numpy as np
    import repro
    from repro.core import release
    from repro.core.pmw import PMWConfig, private_multiplicative_weights
    from repro.queries import evaluation
    from repro.queries.evaluation import shared_evaluator
    from repro.queries.workload import Workload
    from repro.relational.hypergraph import two_table_query
    from repro.relational.instance import Instance

    modules = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    for name in modules:
        importlib.import_module(name)

    query = two_table_query(12, 5, 6)
    rng = np.random.default_rng(8)
    r1 = [(int(rng.integers(12)), int(rng.integers(5))) for _ in range(90)]
    r2 = [(int(rng.integers(5)), int(rng.integers(6))) for _ in range(110)]
    instance = Instance.from_tuple_lists(query, {"R1": r1, "R2": r2})
    workload = Workload.attribute_marginals(query, "A", include_counting=False)
    for name in ("B", "C"):
        workload = workload.extended(
            Workload.attribute_marginals(query, name, include_counting=False).queries
        )

    # The carried loop: one full evaluation in 12 rounds.
    budget = evaluation._MATRIX_CELL_BUDGET
    evaluation._MATRIX_CELL_BUDGET = 0
    evaluator = shared_evaluator(workload)
    calls = []
    open_session = evaluator.histogram_session

    def counted_session(*args, **kwargs):
        session = open_session(*args, **kwargs)
        answers = session.answers
        session.answers = lambda: calls.append(1) or answers()
        return session

    evaluator.histogram_session = counted_session
    result = private_multiplicative_weights(
        instance, workload, 1.0, 1e-5, 2.0, seed=5, config=PMWConfig(num_iterations=12)
    )
    del evaluator.histogram_session
    evaluation._MATRIX_CELL_BUDGET = budget

    methods = ("two_table", "multi_table", "uniformize_two_table", "uniformize_hierarchical")
    released = {}
    for method in methods:
        out = release.release_synthetic_data(
            instance, workload, 1.0, 1e-5, method=method, seed=0,
            pmw_config=PMWConfig(num_iterations=4),
        )
        released[method] = out.algorithm

    # Top-level modules the import system loaded: the Cython runtime modules
    # numpy's compiled extensions register themselves have no spec.
    loaded = {
        name for name, module in sys.modules.items()
        if "." not in name and getattr(module, "__spec__", None) is not None
    }
    print(json.dumps({
        "modules": len(modules),
        "pmw": [result.iterations, len(calls)],
        "released": released,
        "new": sorted(loaded - before - set(sys.stdlib_module_names)),
    }))
    """
)


def test_the_library_runs_on_numpy_alone():
    source = Path(__file__).resolve().parents[2] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True,
        text=True,
        check=False,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    outcome = json.loads(completed.stdout.splitlines()[-1])
    assert outcome["modules"] >= 70
    assert outcome["pmw"] == [12, 1]
    methods = ("two_table", "multi_table", "uniformize_two_table", "uniformize_hierarchical")
    assert outcome["released"] == {method: method for method in methods}
    assert outcome["new"] == ["numpy", "repro"]
