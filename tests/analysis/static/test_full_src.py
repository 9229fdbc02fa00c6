"""Tier-1 gate: the DP lint over the real ``src/repro`` tree.

Any finding fails the suite, the whole pass must stay fast enough to run on
every commit, and each rule must fire on a violation seeded into a copy of
the real tree (a walker that never fired would pass the clean check too).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

from repro.analysis.lint import check

_REPO = Path(__file__).resolve().parents[3]
_SRC = _REPO / "src" / "repro"
_SCRIPT = _REPO / "tests" / "telemetry" / "check_stdlib_only.py"

#: Runs the script named by argv[1] with numpy, scipy and repro unimportable,
#: as on a CI runner before anything is pip-installed.
_WITHOUT_PACKAGES = """
import runpy
import sys


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy", "repro"):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, Refuse())
runpy.run_path(sys.argv[1], run_name="__main__")
"""


def test_src_tree_is_clean_with_no_third_party_package():
    # CI's first step: the script must run every rule over src/repro without
    # numpy, scipy or the repro package, and find nothing.
    completed = subprocess.run(
        [sys.executable, "-c", _WITHOUT_PACKAGES, str(_SCRIPT)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert completed.stdout.startswith("clean: 0 findings in "), completed.stdout


def test_scan_covers_the_whole_package():
    _findings, files_scanned = check(_SRC)
    assert files_scanned > 66, f"only {files_scanned} files scanned — path wiring broken?"


def test_full_scan_is_fast():
    start = time.perf_counter()
    check(_SRC)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"full lint pass took {elapsed:.1f}s (budget 5s)"


#: One violation per rule appended to real modules, then the DPA101–103
#: lines again in the homes their rules exempt.
_SEEDED = {
    "core/pmw.py": "\nimport random\n\n\ndef _seeded_leak(session):\n    return session._cells\n",
    "core/two_table.py": "\n\ndef _seeded_noise(rng):\n    return rng.laplace(0.0, 1.0)\n",
    "telemetry/spans.py": "\nimport numpy\n",
    "relational/join.py": "\n\ntry:\n    pass\nexcept Exception:\n    pass\n",
    "mechanisms/rng.py": "\nimport random\n",
    "experiments/e01_flawed_variants.py": "\nimport random\n",
    "mechanisms/laplace.py": "\n\ndef _seeded_noise(rng):\n    return rng.laplace(0.0, 1.0)\n",
    "queries/evaluation.py": "\n\ndef _seeded_leak(session):\n    return session._cells\n",
}


def test_each_rule_fires_on_a_violation_seeded_into_the_real_tree(tmp_path):
    root = tmp_path / "repro"
    shutil.copytree(_SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
    for rel, source in _SEEDED.items():
        with open(root / rel, "a", encoding="utf-8") as handle:
            handle.write(source)
    findings, _files_scanned = check(root)
    assert [(finding.code, finding.path) for finding in findings] == [
        ("DPA101", "core/pmw.py"),
        ("DPA103", "core/pmw.py"),
        ("DPA102", "core/two_table.py"),
        ("DPA106", "relational/join.py"),
        ("DPA104", "telemetry/spans.py"),
    ]
