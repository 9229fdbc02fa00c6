"""repro.analysis.static — the pluggable DP static-analysis suite.

AST-level enforcement of the invariants the reproduction's guarantees rest
on: seeded randomness (DPA101), ledger-charged noise (DPA102), histogram
session encapsulation (DPA103), stdlib-only load-anywhere packages
(DPA104), and exception hygiene (DPA106).
Run it with ``python -m repro.analysis``; see the README's "Static
analysis" section for the rule table, suppression syntax, and the baseline
workflow.

This package is intentionally self-contained: standard library imports and
relative imports only, so the dependency-free CI check can bootstrap it by
file path before anything is pip-installed (enforced by DPA104 on itself).
"""

from .findings import (
    ENGINE_CODES,
    PARSE_ERROR,
    STALE_BASELINE,
    UNUSED_SUPPRESSION,
    Finding,
)
from .engine import (
    AnalysisResult,
    FileContext,
    analyze_file,
    analyze_paths,
    iter_python_files,
    logical_path,
)
from .registry import Rule, default_rules, register_rule, registered_rules
from .baseline import Baseline, BaselineError, write_baseline
from .output import render, render_github, render_json, render_text
from . import rules

__all__ = [
    "ENGINE_CODES",
    "PARSE_ERROR",
    "STALE_BASELINE",
    "UNUSED_SUPPRESSION",
    "AnalysisResult",
    "Baseline",
    "BaselineError",
    "FileContext",
    "Finding",
    "Rule",
    "analyze_file",
    "analyze_paths",
    "default_rules",
    "iter_python_files",
    "logical_path",
    "register_rule",
    "registered_rules",
    "render",
    "render_github",
    "render_json",
    "render_text",
    "rules",
    "write_baseline",
]
