"""Sensitivity machinery for the counting join-size query.

Implements the instance-dependent sensitivities the paper builds on (global
sensitivity, up to ``n^{m-1}`` for joins, is what they avoid):

* local sensitivity ``LS_count(I)`` (Section 1.2);
* maximum boundary queries ``T_E(I)`` (Equation 1);
* residual sensitivity ``RS^β_count(I)`` (Definition 3.6, from Dong–Yi);
* brute-force smooth sensitivity on tiny instances, which the sensitivity
  tour example prints between LS and RS;
* join-value degrees, maximum degrees ``mdeg_E(y)`` and the q-aggregate upper
  bounds of Section 4.2.1;
* degree configurations (Definition 4.9) and per-configuration residual
  sensitivity upper bounds, which E8 reports for the hierarchical analysis.
"""
