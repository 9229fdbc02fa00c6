"""Differential-privacy mechanism substrate.

The noise the paper's algorithms draw (Laplace, truncated/shifted Laplace,
the exponential mechanism), privacy specifications, composition rules and
the privacy ledger.  Every sampling function takes an explicit
``numpy.random.Generator`` so that all algorithms in the library are
reproducible under a fixed seed.
"""
