"""Static guard: histogram storage is private to the queries package.

Thin wrapper over rule **DPA103** (session-encapsulation) of the static
analysis suite — the single implementation lives in
``repro.analysis.static.rules.session_encapsulation`` and also runs
repo-wide via ``python -m repro.analysis``.  The invariant: every module
outside ``src/repro/queries/`` talks to histogram sessions purely through
the ops (``answers`` / ``scale_support`` / ``scale`` / ``fill`` / ``total``
/ ``accumulate`` / ``averaged_slices`` / ``close``); any access to a
storage attribute (``SESSION_STORAGE_ATTRS``) would re-couple callers to
the representation.  ``np.array(...)`` constructor calls are exempt.
"""

from pathlib import Path

import numpy as np

from repro.analysis.static import analyze_paths
from repro.analysis.static.rules import SessionEncapsulationRule
from repro.analysis.static.rules.session_encapsulation import SESSION_STORAGE_ATTRS
from repro.queries.evaluation import WorkloadEvaluator
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query

_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _scan(root: Path, package_root: Path):
    return analyze_paths([root], rules=[SessionEncapsulationRule()], package_root=package_root)


def test_source_tree_has_modules_to_scan():
    result = _scan(_SRC, _SRC)
    assert result.files_scanned > 10, "guard scanned suspiciously few modules"


def test_no_histogram_array_access_outside_queries_package():
    result = _scan(_SRC, _SRC)
    assert result.ok, (
        "histogram backing storage is private to src/repro/queries/ — use the "
        "HistogramSession ops (answers/scale_support/scale/fill/total/"
        "accumulate/averaged_slices) instead:\n"
        + "\n".join(finding.render() for finding in result.findings)
    )


def test_rule_still_fires_on_seeded_violation(tmp_path):
    # The wrapper must lose no coverage vs the old ad-hoc AST guard: a
    # planted violation outside queries/ fails, the same code inside
    # queries/ (and a numpy constructor call) stays quiet.
    root = tmp_path / "repro"
    bad = root / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def leak(session):\n    return session._array[0]\n")
    ok = root / "queries" / "ok.py"
    ok.parent.mkdir(parents=True)
    ok.write_text("def fine(session):\n    return session._array[0]\n")
    numpy_ok = root / "core" / "numpy_ok.py"
    numpy_ok.write_text("import numpy as np\n\nx = np.array([1.0])\n")

    result = _scan(root, root)
    assert [finding.code for finding in result.findings] == ["DPA103"]
    assert result.findings[0].logical == "core/bad.py"


def test_rule_lists_every_storage_attribute_of_a_session():
    # A renamed or added storage array must be added to the rule, or the
    # guard would silently stop covering it.
    query = two_table_query(3, 2, 2)
    evaluator = WorkloadEvaluator(Workload.attribute_marginals(query, "A"))
    session = evaluator.histogram_session(np.ones(query.joint_domain_size))
    session.accumulate()  # allocates the accumulator and the flushed weights
    arrays = {name for name, value in vars(session).items() if isinstance(value, np.ndarray)}
    assert len(arrays) == 3
    assert arrays <= SESSION_STORAGE_ATTRS
    assert "_scale" in vars(session) and "_scale" in SESSION_STORAGE_ATTRS  # h = c·g
