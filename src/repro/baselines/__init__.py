"""Baseline algorithms the paper argues against (or builds on).

* :mod:`repro.baselines.flawed` — the two "natural but flawed" join-as-one
  variants of Section 3.1, kept for the Example 3.1 distinguishability
  experiment (they are **not** differentially private);
* :mod:`repro.baselines.independent_laplace` — answering every workload query
  separately with Laplace noise under basic composition (the approach the
  introduction argues does not scale with |Q|).
"""

from repro.baselines.flawed import flawed_exact_count_release, flawed_padded_release
from repro.baselines.independent_laplace import independent_laplace_answers

__all__ = [
    "flawed_exact_count_release",
    "flawed_padded_release",
    "independent_laplace_answers",
]
