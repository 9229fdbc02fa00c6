"""Tier-1 enforcement of the stdlib-only contract (rule DPA104).

The same rule runs standalone in CI (``check_stdlib_only.py``) before any
dependencies are installed; this test keeps the invariant inside the
default test collection so a stray ``import numpy`` in ``repro.telemetry``
— or in the static-analysis framework the standalone check bootstraps —
fails locally too.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_CHECKER = Path(__file__).resolve().parent / "check_stdlib_only.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_stdlib_only", _CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stdlib_only_packages_are_clean():
    checker = _load_checker()
    assert checker.TELEMETRY_DIR.is_dir()
    assert checker.violations() == []


def test_checker_sees_every_module():
    # The walk must actually cover both packages (guards against a path typo
    # silently turning the check into a no-op).
    checker = _load_checker()
    result = checker.analysis_result()
    assert result.files_scanned > 10
    modules = {path.name for path in checker.TELEMETRY_DIR.glob("*.py")}
    assert {"__init__.py", "metrics.py", "spans.py"} <= modules


def test_rule_still_fires_on_seeded_violation(tmp_path):
    # Coverage parity with the old ad-hoc checker: a planted third-party
    # import in a covered package fails; stdlib and facade imports pass.
    checker = _load_checker()
    static = checker.load_static_framework()
    root = tmp_path / "repro"
    telemetry = root / "telemetry"
    telemetry.mkdir(parents=True)
    (telemetry / "bad.py").write_text(
        "import numpy\nfrom repro.queries import backends\n"
    )
    (telemetry / "good.py").write_text(
        "import json\nfrom repro import telemetry\nfrom repro.telemetry import metrics\n"
    )
    (root / "core").mkdir()
    (root / "core" / "uncovered.py").write_text("import numpy\n")

    result = static.analyze_paths(
        [root], rules=[static.rules.StdlibOnlyRule()], package_root=root
    )
    assert [finding.code for finding in result.findings] == ["DPA104", "DPA104"]
    assert {finding.logical for finding in result.findings} == {"telemetry/bad.py"}


def test_standalone_does_not_import_repro_package(tmp_path):
    # The CI job runs the checker before installing numpy: loading the
    # framework must not execute repro/__init__.py.  Simulate by checking
    # that the checker's framework alias is path-loaded, not the package.
    checker = _load_checker()
    module = checker.load_static_framework()
    assert module.__name__ == "_repro_dpa_static"
    assert module.analyze_paths is not None
