"""Per-rule fixture pairs: every shipped rule fires on a violating snippet
and stays quiet on a clean one (plus its config-driven exemptions)."""

from __future__ import annotations

import pytest

from repro.analysis.static.rules import (
    ExceptionHygieneRule,
    NoiseLocalityRule,
    RngDisciplineRule,
    SessionEncapsulationRule,
    StdlibOnlyRule,
)


def codes(result):
    return [finding.code for finding in result.findings]


# --- DPA101 rng-discipline -------------------------------------------------


def test_dpa101_fires_on_direct_default_rng(scan):
    result = scan(
        {"core/foo.py": "import numpy as np\n\nrng = np.random.default_rng(0)\n"},
        rules=[RngDisciplineRule()],
    )
    assert codes(result) == ["DPA101"]
    assert result.findings[0].line == 3


def test_dpa101_fires_on_ambient_numpy_random_and_seed(scan):
    result = scan(
        {
            "core/foo.py": """\
            import numpy as np

            np.random.seed(7)
            x = np.random.uniform(size=3)
            """
        },
        rules=[RngDisciplineRule()],
    )
    assert codes(result) == ["DPA101", "DPA101"]


def test_dpa101_fires_on_constructor_import_and_call(scan):
    result = scan(
        {
            "core/foo.py": """\
            from numpy.random import default_rng

            rng = default_rng(3)
            """
        },
        rules=[RngDisciplineRule()],
    )
    # Both the import and the call site are reported.
    assert codes(result) == ["DPA101", "DPA101"]


def test_dpa101_fires_on_numpy_random_alias(scan):
    result = scan(
        {"core/foo.py": "import numpy.random as nr\n\nrng = nr.default_rng(0)\n"},
        rules=[RngDisciplineRule()],
    )
    assert codes(result) == ["DPA101"]


def test_dpa101_fires_on_stdlib_random(scan):
    result = scan(
        {"core/foo.py": "import random\n\nx = random.random()\n"},
        rules=[RngDisciplineRule()],
    )
    assert codes(result) == ["DPA101", "DPA101"]


def test_dpa101_quiet_on_resolve_rng_and_annotations(scan):
    result = scan(
        {
            "core/foo.py": """\
            import numpy as np

            from repro.mechanisms.rng import resolve_rng


            def release(rng: np.random.Generator | None = None):
                generator = resolve_rng(rng)
                return generator.integers(0, 10)
            """
        },
        rules=[RngDisciplineRule()],
    )
    assert result.ok


def test_dpa101_exempts_rng_module_and_experiments(scan):
    source = "import numpy as np\n\nrng = np.random.default_rng(0)\n"
    result = scan(
        {"mechanisms/rng.py": source, "experiments/e99_new.py": source},
        rules=[RngDisciplineRule()],
    )
    assert result.ok


# --- DPA102 noise-locality -------------------------------------------------


def test_dpa102_fires_on_noise_outside_mechanisms(scan):
    result = scan(
        {
            "core/foo.py": """\
            def charge_free_noise(rng, scale):
                return rng.laplace(0.0, scale) + rng.normal(0.0, scale)
            """
        },
        rules=[NoiseLocalityRule()],
    )
    assert codes(result) == ["DPA102", "DPA102"]


def test_dpa102_quiet_inside_mechanisms_and_on_other_methods(scan):
    result = scan(
        {
            "mechanisms/foo.py": "def sample(rng):\n    return rng.laplace(0.0, 1.0)\n",
            "core/foo.py": "def draw(rng):\n    return rng.integers(0, 4)\n",
        },
        rules=[NoiseLocalityRule()],
    )
    assert result.ok


# --- DPA103 session-encapsulation ------------------------------------------


def test_dpa103_fires_outside_queries(scan):
    result = scan(
        {"core/foo.py": "def leak(session):\n    return session._array\n"},
        rules=[SessionEncapsulationRule()],
    )
    assert codes(result) == ["DPA103"]


@pytest.mark.parametrize("attribute", ["_cells", "_scale", "_accumulator", "_flushed"])
def test_dpa103_fires_on_each_session_storage_attribute(scan, attribute):
    result = scan(
        {"core/foo.py": f"def leak(session):\n    return session.{attribute}\n"},
        rules=[SessionEncapsulationRule()],
    )
    assert codes(result) == ["DPA103"]


def test_dpa103_quiet_inside_queries_and_for_numpy(scan):
    result = scan(
        {
            "queries/foo.py": "def fine(session):\n    return session.array\n",
            "core/bar.py": "import numpy as np\n\nx = np.array([1.0])\n",
        },
        rules=[SessionEncapsulationRule()],
    )
    assert result.ok


# --- DPA104 stdlib-only ----------------------------------------------------


def test_dpa104_fires_on_third_party_and_cross_package_imports(scan):
    result = scan(
        {
            "telemetry/bad.py": """\
            import numpy
            from repro.queries import backends
            from repro import queries
            """
        },
        rules=[StdlibOnlyRule()],
    )
    assert codes(result) == ["DPA104", "DPA104", "DPA104"]


def test_dpa104_quiet_on_stdlib_facade_and_relative_imports(scan):
    result = scan(
        {
            "telemetry/good.py": """\
            import json
            import os.path
            from repro import telemetry
            from repro.telemetry import metrics
            from . import spans
            """,
            "core/uncovered.py": "import numpy\n",
        },
        rules=[StdlibOnlyRule()],
    )
    assert result.ok


def test_dpa104_covers_the_analysis_framework_itself(scan):
    result = scan(
        {"analysis/static/bad.py": "import numpy\n"},
        rules=[StdlibOnlyRule()],
    )
    assert codes(result) == ["DPA104"]


# --- DPA106 exception-hygiene ----------------------------------------------


def test_dpa106_fires_on_bare_except_and_blanket_swallow(scan):
    result = scan(
        {
            "core/foo.py": """\
            import contextlib


            def swallow(op):
                try:
                    op()
                except:
                    pass


            def blanket(op):
                try:
                    op()
                except Exception:
                    pass


            def disguised(op):
                with contextlib.suppress(Exception):
                    op()
            """
        },
        rules=[ExceptionHygieneRule()],
    )
    assert codes(result) == ["DPA106", "DPA106", "DPA106"]


def test_dpa106_quiet_on_narrow_or_handled(scan):
    result = scan(
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
        },
        rules=[ExceptionHygieneRule()],
    )
    assert result.ok
