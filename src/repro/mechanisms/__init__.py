"""Differential-privacy mechanism substrate.

The noise the paper's algorithms draw (Laplace, truncated/shifted Laplace,
the exponential mechanism), privacy specifications, composition rules and
the privacy ledger.  Every sampling function takes an explicit
``numpy.random.Generator`` so that all algorithms in the library are
reproducible under a fixed seed.
"""

from repro.mechanisms.spec import PrivacySpec
from repro.mechanisms.rng import resolve_rng
from repro.mechanisms.laplace import laplace_mechanism, sample_laplace
from repro.mechanisms.truncated_laplace import (
    sample_truncated_laplace,
    truncated_laplace_mechanism,
    truncation_radius,
)
from repro.mechanisms.exponential import exponential_mechanism, exponential_mechanism_probabilities
from repro.mechanisms.composition import (
    advanced_composition,
    basic_composition,
    group_privacy,
    parallel_composition,
)
from repro.mechanisms.ledger import (
    BudgetExceededError,
    PrivacyLedger,
    RemainingBudget,
    ambient_ledgers,
    use_ledger,
)

__all__ = [
    "BudgetExceededError",
    "PrivacyLedger",
    "PrivacySpec",
    "RemainingBudget",
    "ambient_ledgers",
    "use_ledger",
    "advanced_composition",
    "basic_composition",
    "exponential_mechanism",
    "exponential_mechanism_probabilities",
    "group_privacy",
    "laplace_mechanism",
    "parallel_composition",
    "resolve_rng",
    "sample_laplace",
    "sample_truncated_laplace",
    "truncated_laplace_mechanism",
    "truncation_radius",
]
