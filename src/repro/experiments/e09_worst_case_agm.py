"""E9 — Appendix B.3: worst-case sensitivity and error via the AGM bound.

For 0/1 relations the join size is at most ``n^{ρ(H)}`` and every boundary
query is at most ``n^{ρ(H_{E, ∂E})}``, giving the closed-form worst-case error
``n^{(ρ(H) + max_E ρ(H_{E,∂E}))/2}``.  The experiment computes the fractional
edge cover exponents for the standard query shapes, verifies that measured
join sizes and residual sensitivities of random 0/1 instances stay below the
AGM predictions, and reports how close worst-case-style instances get.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.agm import (
    agm_bound,
    fractional_edge_cover_number,
    worst_case_error_bound,
    worst_case_sensitivity_exponent,
)
from repro.analysis.reporting import ExperimentTable
from repro.core.multi_table import default_beta
from repro.datagen.random_instances import random_instance
from repro.relational.hypergraph import (
    JoinQuery,
    chain_query,
    star_query,
    triangle_query,
    two_table_query,
)
from repro.relational.join import join_size
from repro.sensitivity.residual import residual_sensitivity

DOMAIN_SIZE = 6
TUPLES_PER_RELATION = 18
EPSILON = 1.0
DELTA = 1e-4
TRIALS = 3


def _standard_queries(domain_size: int) -> dict[str, JoinQuery]:
    return {
        "two-table": two_table_query(domain_size, domain_size, domain_size),
        "3-chain": chain_query([domain_size] * 4),
        "triangle": triangle_query(domain_size),
        "star-3": star_query(domain_size, [domain_size] * 3),
    }


def run(*, seed: int = 0) -> dict:
    """Tabulate AGM exponents and compare measured quantities against them."""
    rng = np.random.default_rng(seed)
    beta = default_beta(EPSILON, DELTA)
    table = ExperimentTable(
        title="E9: AGM exponents and measured join size / residual sensitivity",
        columns={
            "query": "query",
            "rho": "ρ(H)",
            "residual_exponent": "max_E ρ(H_E)",
            "agm_bound": "AGM bound",
            "measured_out": "measured OUT",
            "measured_rs": "measured RS",
            "worst_case_error_shape": "worst-case error shape",
        },
    )
    for name, query in _standard_queries(DOMAIN_SIZE).items():
        rho = fractional_edge_cover_number(query)
        residual_exponent = worst_case_sensitivity_exponent(query)
        out_values = []
        rs_values = []
        n_values = []
        for _ in range(TRIALS):
            instance = random_instance(query, TUPLES_PER_RELATION, rng=rng)
            n_values.append(instance.total_size())
            out_values.append(join_size(instance))
            rs_values.append(residual_sensitivity(instance, beta))
        n = int(np.median(n_values))
        table.add_row(
            query=name,
            rho=rho,
            residual_exponent=residual_exponent,
            agm_bound=agm_bound(query, n),
            measured_out=float(np.median(out_values)),
            measured_rs=float(np.median(rs_values)),
            worst_case_error_shape=worst_case_error_bound(query, n),
        )
    return {"table": table}
