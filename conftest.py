"""Pytest bootstrap.

The execution environment used for this reproduction is fully offline and has
no ``wheel`` package, so PEP 660 editable installs are unavailable.  Adding
``src/`` to ``sys.path`` here keeps ``pytest`` runnable straight from a source
checkout; when the package is properly installed this is a harmless no-op
(the installed distribution takes precedence only if it appears earlier on the
path, and both point at the same files in develop mode).

In-process ``resource_tracker`` warnings error out instead of scrolling by.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_configure(config):
    # Resource-tracker leak reports raised in-process must fail the test
    # that caused them, not scroll by as warnings.
    config.addinivalue_line("filterwarnings", "error:resource_tracker")
