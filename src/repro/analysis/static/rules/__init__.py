"""The shipped DP static-analysis rules.

Importing this package registers every rule with the
:mod:`~repro.analysis.static.registry`; the classes are re-exported so
wrappers (the session-encapsulation and stdlib-only guards) can run a
single rule in isolation.
"""

from .rng_discipline import RngDisciplineRule
from .noise_locality import NoiseLocalityRule
from .session_encapsulation import SessionEncapsulationRule
from .stdlib_only import StdlibOnlyRule
from .exception_hygiene import ExceptionHygieneRule

__all__ = [
    "ExceptionHygieneRule",
    "NoiseLocalityRule",
    "RngDisciplineRule",
    "SessionEncapsulationRule",
    "StdlibOnlyRule",
]
