"""Closed-form error bounds, the AGM bound, and experiment reporting helpers.

:mod:`repro.analysis.lint` is a different kind of analysis: five AST rules
(DPA101–104, DPA106) for the code invariants the privacy guarantees rest
on. It is not imported here: it imports only the standard library, so a
check can load it by file path before numpy is installed.
"""

from repro.analysis.bounds import (
    f_lower,
    f_upper,
    lam,
    theorem_15_error,
    theorem_33_error,
    theorem_35_lower_bound,
    theorem_44_error,
    theorem_45_lower_bound,
)
from repro.analysis.agm import agm_bound, fractional_edge_cover_number, worst_case_error_bound
from repro.analysis.reporting import ExperimentTable

__all__ = [
    "ExperimentTable",
    "agm_bound",
    "f_lower",
    "f_upper",
    "fractional_edge_cover_number",
    "lam",
    "theorem_15_error",
    "theorem_33_error",
    "theorem_35_lower_bound",
    "theorem_44_error",
    "theorem_45_lower_bound",
    "worst_case_error_bound",
]
