"""Every script in ``examples/`` runs end to end.

Each example's ``main()`` is run in-process with its printout discarded, so
an API change that breaks an example fails the suite instead of the reader.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_runs(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    with contextlib.redirect_stdout(io.StringIO()):
        spec.loader.exec_module(module)
        module.main()
