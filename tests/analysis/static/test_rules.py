"""Per-rule fixture pairs: every rule fires on a violating snippet and stays
quiet on a clean one and in its exempt paths.  Every scan runs all five
rules, so a fixture that tripped a second rule would fail here too."""

from __future__ import annotations

import pytest


def code_lines(findings):
    return [(finding.code, finding.line) for finding in findings]


# --- DPA101 rng-discipline -------------------------------------------------


@pytest.mark.parametrize(
    ("source", "lines"),
    [
        pytest.param(
            "import numpy as np\n\nrng = np.random.default_rng(0)\n", [3], id="direct-default-rng"
        ),
        pytest.param(
            "import numpy as np\n\nnp.random.seed(7)\nx = np.random.uniform(size=3)\n",
            [3, 4],
            id="ambient-numpy-random-and-seed",
        ),
        # Both the import and the call site are reported.
        pytest.param(
            "from numpy.random import default_rng\n\nrng = default_rng(3)\n",
            [1, 3],
            id="constructor-import-and-call",
        ),
        pytest.param(
            "import numpy.random as nr\n\nrng = nr.default_rng(0)\n", [3], id="numpy-random-alias"
        ),
        pytest.param("import random\n\nx = random.random()\n", [1, 3], id="stdlib-random"),
        pytest.param(
            "import numpy as xp\n\nrng = xp.random.default_rng()\n", [3], id="numpy-alias"
        ),
        pytest.param(
            "from numpy import random as npr\n\nrng = npr.default_rng()\n",
            [3],
            id="numpy-random-from-import-alias",
        ),
        pytest.param(
            "from random import random\n\nx = random()\n", [1, 3], id="stdlib-random-from-import"
        ),
        pytest.param("import random as r\n\nx = r.random()\n", [1, 3], id="stdlib-random-alias"),
        pytest.param(
            "import numpy.random\n\nrng = numpy.random.default_rng()\n",
            [3],
            id="bare-numpy-random-import",
        ),
        # Bit generators are not constructors: only Generator fires.
        pytest.param(
            "from numpy.random import Generator, PCG64\n\nrng = Generator(PCG64(1))\n",
            [1, 3],
            id="generator-beside-bit-generator",
        ),
    ],
)
def test_dpa101_fires(scan, source, lines):
    findings = scan({"core/foo.py": source})
    assert code_lines(findings) == [("DPA101", line) for line in lines]


def test_dpa101_quiet_on_resolve_rng_and_annotations(scan):
    findings = scan(
        {
            "core/foo.py": """\
            import numpy as np

            from repro.mechanisms.rng import resolve_rng


            def release(rng: np.random.Generator | None = None):
                generator = resolve_rng(rng)
                return generator.integers(0, 10)
            """
        }
    )
    assert findings == []


def test_dpa101_exempts_rng_module_and_experiments(scan):
    source = "import numpy as np\n\nrng = np.random.default_rng(0)\n"
    assert scan({"mechanisms/rng.py": source, "experiments/e99_new.py": source}) == []


# --- DPA102 noise-locality -------------------------------------------------


@pytest.mark.parametrize(
    "method",
    ["laplace", "normal", "standard_normal", "gumbel", "exponential", "standard_exponential"],
)
def test_dpa102_fires_on_noise_outside_mechanisms(scan, method):
    findings = scan({"core/foo.py": f"def draw_noise(rng):\n    return rng.{method}()\n"})
    assert code_lines(findings) == [("DPA102", 2)]


def test_dpa102_quiet_inside_mechanisms_and_on_other_methods(scan):
    findings = scan(
        {
            "mechanisms/foo.py": "def sample(rng):\n    return rng.laplace(0.0, 1.0)\n",
            "core/foo.py": "def draw(rng):\n    return rng.integers(0, 4)\n",
        }
    )
    assert findings == []


# --- DPA103 session-encapsulation ------------------------------------------


@pytest.mark.parametrize(
    "attribute", ["array", "_array", "_cells", "_scale", "_accumulator", "_flushed"]
)
def test_dpa103_fires_on_each_session_storage_attribute(scan, attribute):
    findings = scan({"core/foo.py": f"def leak(session):\n    return session.{attribute}\n"})
    assert code_lines(findings) == [("DPA103", 2)]


@pytest.mark.parametrize(
    ("path", "source"),
    [
        pytest.param(
            "queries/foo.py", "def fine(session):\n    return session.array\n", id="inside-queries"
        ),
        pytest.param("core/bar.py", "import numpy as np\n\nx = np.array([1.0])\n", id="np-array"),
        pytest.param(
            "core/bar.py", "import numpy\n\nx = numpy.array([1.0])\n", id="numpy-array"
        ),
    ],
)
def test_dpa103_quiet_inside_queries_and_for_numpy(scan, path, source):
    assert scan({path: source}) == []


# --- DPA104 stdlib-only ----------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        pytest.param("import numpy\n", id="third-party"),
        pytest.param("import scipy.sparse\n", id="third-party-submodule"),
        pytest.param("from repro.queries import backends\n", id="cross-package"),
        pytest.param("from repro import queries\n", id="facade-of-another-package"),
        pytest.param("from repro.analysis import lint\n", id="another-stdlib-only-module"),
    ],
)
def test_dpa104_fires_on_third_party_and_cross_package_imports(scan, source):
    assert code_lines(scan({"telemetry/bad.py": source})) == [("DPA104", 1)]


@pytest.mark.parametrize(
    ("path", "source"),
    [
        pytest.param(
            "telemetry/good.py",
            """\
            import json
            import os.path
            from repro import telemetry
            from repro.telemetry import metrics
            from . import spans
            """,
            id="stdlib-facade-and-relative",
        ),
        pytest.param("telemetry/good.py", "import repro\n", id="bare-ancestor-package"),
        pytest.param("core/uncovered.py", "import numpy\n", id="uncovered-package"),
    ],
)
def test_dpa104_quiet_on_stdlib_facade_and_relative_imports(scan, path, source):
    assert scan({path: source}) == []


def test_dpa104_covers_the_lint_module_itself(scan):
    assert code_lines(scan({"analysis/lint.py": "import numpy\n"})) == [("DPA104", 1)]


# --- DPA106 exception-hygiene ----------------------------------------------


@pytest.mark.parametrize(
    ("source", "line"),
    [
        pytest.param("try:\n    op()\nexcept:\n    pass\n", 3, id="bare-except"),
        pytest.param("try:\n    op()\nexcept Exception:\n    pass\n", 3, id="exception-pass"),
        pytest.param(
            "try:\n    op()\nexcept (ValueError, Exception):\n    pass\n", 3, id="broad-in-tuple"
        ),
        pytest.param(
            'import builtins\n\ntry:\n    op()\nexcept builtins.BaseException:\n    """Ignore."""\n',
            5,
            id="qualified-broad-docstring-body",
        ),
        pytest.param("try:\n    op()\nexcept Exception:\n    ...\n", 3, id="ellipsis-body"),
        pytest.param(
            "import contextlib\n\nwith contextlib.suppress(Exception):\n    op()\n",
            3,
            id="contextlib-suppress",
        ),
        pytest.param(
            "from contextlib import suppress\n\nwith suppress(Exception):\n    op()\n",
            3,
            id="suppress-imported-by-name",
        ),
        pytest.param(
            "import contextlib\n\nwith contextlib.suppress((OSError, Exception)):\n    op()\n",
            3,
            id="suppress-broad-in-tuple",
        ),
    ],
)
def test_dpa106_fires_on_bare_except_and_blanket_swallow(scan, source, line):
    assert code_lines(scan({"core/foo.py": source})) == [("DPA106", line)]


def test_dpa106_quiet_on_narrow_or_handled(scan):
    findings = scan(
        {
            "core/foo.py": """\
            import contextlib


            def narrow(op):
                try:
                    op()
                except (OSError, BufferError):
                    pass


            def handled(op, log):
                try:
                    op()
                except Exception as error:
                    log.append(repr(error))


            def narrow_suppress(op):
                with contextlib.suppress(FileNotFoundError):
                    op()
            """
        }
    )
    assert findings == []
