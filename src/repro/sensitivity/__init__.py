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

from repro.sensitivity.local import local_sensitivity, per_relation_local_sensitivity
from repro.sensitivity.boundary import boundary_query, all_boundary_queries
from repro.sensitivity.residual import (
    residual_sensitivity,
    residual_sensitivity_profile,
)
from repro.sensitivity.smooth import (
    local_sensitivity_at_distance,
    smooth_sensitivity_bruteforce,
)
from repro.sensitivity.degrees import (
    degree_vector,
    max_degree,
    t_upper_bound,
)
from repro.sensitivity.configurations import (
    DegreeConfiguration,
    configuration_of_instance,
    configuration_residual_upper_bound,
)

__all__ = [
    "DegreeConfiguration",
    "all_boundary_queries",
    "boundary_query",
    "configuration_of_instance",
    "configuration_residual_upper_bound",
    "degree_vector",
    "local_sensitivity",
    "local_sensitivity_at_distance",
    "max_degree",
    "per_relation_local_sensitivity",
    "residual_sensitivity",
    "residual_sensitivity_profile",
    "smooth_sensitivity_bruteforce",
    "t_upper_bound",
]
