"""Closed-form error bounds, the AGM bound, and experiment reporting helpers.

:mod:`repro.analysis.lint` is a different kind of analysis: five AST rules
(DPA101–104, DPA106) for the code invariants the privacy guarantees rest
on. It imports only the standard library, so a check can load it by file
path before numpy is installed.
"""
