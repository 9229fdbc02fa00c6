"""Pytest bootstrap.

The execution environment used for this reproduction is fully offline and has
no ``wheel`` package, so PEP 660 editable installs are unavailable.  Adding
``src/`` to ``sys.path`` here keeps ``pytest`` runnable straight from a source
checkout; when the package is properly installed this is a harmless no-op
(the installed distribution takes precedence only if it appears earlier on the
path, and both point at the same files in develop mode).

This conftest also registers the opt-in ``bench_smoke`` marker: tests carrying
it (the ``benchmarks/run_all.py`` smoke suite) are skipped unless pytest is
invoked with ``--bench-smoke``, so the default tier-1 run stays fast while the
benchmark scripts can still be exercised in CI.  In-process
``resource_tracker`` warnings error out instead of scrolling by.
"""

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_addoption(parser):
    parser.addoption(
        "--bench-smoke",
        action="store_true",
        default=False,
        help="run the opt-in benchmark smoke tests (tiny-size benchmark execution)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench_smoke: opt-in benchmark smoke execution (enable with --bench-smoke)",
    )
    # Resource-tracker leak reports raised in-process must fail the test
    # that caused them, not scroll by as warnings.
    config.addinivalue_line("filterwarnings", "error:resource_tracker")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--bench-smoke"):
        return
    skip_marker = pytest.mark.skip(reason="benchmark smoke tests need --bench-smoke")
    for item in items:
        if "bench_smoke" in item.keywords:
            item.add_marker(skip_marker)
