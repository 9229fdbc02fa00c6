"""Baseline algorithms the paper argues against (or builds on).

* :mod:`repro.baselines.flawed` — the two "natural but flawed" join-as-one
  variants of Section 3.1, kept for the Example 3.1 distinguishability
  experiment (they are **not** differentially private);
* :mod:`repro.baselines.independent_laplace` — answering every workload query
  separately with Laplace noise under basic composition (the approach the
  introduction argues does not scale with |Q|).
"""
