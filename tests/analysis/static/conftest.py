"""Fixture helpers for the DP lint tests."""

from __future__ import annotations

from textwrap import dedent

import pytest

from repro.analysis.lint import check


@pytest.fixture
def scan(tmp_path):
    """Write fixture files under a fake ``repro`` package root and lint them.

    Usage::

        findings = scan({"core/foo.py": "..."})

    Paths are package-relative (``mechanisms/rng.py``), matching how the
    rules scope themselves in the real tree.  Every rule runs.
    """

    def _scan(files: dict):
        root = tmp_path / "repro"
        for rel, source in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(dedent(source))
        return check(root)[0]

    return _scan
