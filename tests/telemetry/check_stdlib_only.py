#!/usr/bin/env python3
"""Run the DP lint over ``src/repro`` with no third-party package installed.

Importing ``repro`` would pull numpy, so this script loads
``src/repro/analysis/lint.py`` by file path (the module imports only the
standard library, which its rule DPA104 enforces) and runs all five rules::

    python tests/telemetry/check_stdlib_only.py

It prints each finding and exits 1 if there is any, 0 when the tree is clean.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

_PACKAGE_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def main() -> int:
    spec = importlib.util.spec_from_file_location("lint", _PACKAGE_ROOT / "analysis" / "lint.py")
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    findings, files_scanned = lint.check(_PACKAGE_ROOT)
    for finding in findings:
        print(f"src/repro/{finding}", file=sys.stderr)
    if findings:
        print(f"{len(findings)} finding(s) in {files_scanned} files", file=sys.stderr)
        return 1
    print(f"clean: 0 findings in {files_scanned} files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
