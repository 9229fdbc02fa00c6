"""E1 — Figure 1 / Example 3.1: the flawed variants leak, Algorithm 1 does not.

The distinguishing statistic of Example 3.1 is the synthetic mass landing in
``D' = dom(A) × {b_0} × {c_0}``: under the instance ``I`` (join size ``n``)
an accurate flawed release concentrates ≈ ``n`` mass there, while under the
neighbour ``I'`` (join size ``0``) it places essentially none — the event
"mass(D') > n/3" then has probability ≈ 1 under ``I`` and ≈ 0 under ``I'``,
which no (ε, δ)-DP algorithm can do.  Algorithm 1 calibrates its noise to the
(noisy) local sensitivity — which is ``≈ n`` on this pair — so its releases
are statistically indistinguishable across the pair (at the price of large
error on this worst-case instance, exactly as Theorem 3.3 predicts).

The per-algorithm event frequencies over many trials are the reproduced
quantity; the flawed variants should show a gap close to 1 while Algorithm 1
should show a gap consistent with ``e^ε``-bounded probabilities.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import ExperimentTable
from repro.baselines.flawed import flawed_exact_count_release, flawed_padded_release
from repro.core.pmw import PMWConfig
from repro.core.two_table import two_table_release
from repro.datagen.synthetic import figure1_pair
from repro.queries.linear import ProductQuery, TableQuery, all_one_query
from repro.queries.workload import Workload

N = 600
SIDE_DOMAIN_SIZE = 16
EPSILON = 1.0
DELTA = 1e-5
TRIALS = 8


def _dprime_mass(histogram: np.ndarray) -> float:
    """Mass of the released histogram inside ``D' = dom(A) × {b_0} × {c_0}``."""
    return float(histogram[:, 0, 0].sum())


def _dprime_workload(query) -> Workload:
    """Counting query plus the D' indicator (the query an analyst would ask)."""
    r1_schema = query.relation("R1")
    r2_schema = query.relation("R2")
    q1 = TableQuery.indicator(r1_schema, {"B": [0]})
    q2 = TableQuery.indicator(r2_schema, {"B": [0], "C": [0]})
    dprime = ProductQuery(query, (q1, q2), name="D'")
    return Workload(query, (all_one_query(query), dprime))


def run(*, seed: int = 0) -> dict:
    """Run the distinguishing experiment and tabulate per-algorithm event frequencies."""
    pair = figure1_pair(N, side_domain_size=SIDE_DOMAIN_SIZE)
    workload = _dprime_workload(pair.query)
    rng = np.random.default_rng(seed)
    pmw_config = PMWConfig(max_iterations=40)

    algorithms = {
        "flawed_exact_count": lambda inst, generator: flawed_exact_count_release(
            inst, workload, EPSILON, DELTA, rng=generator, pmw_config=pmw_config
        ),
        "flawed_padded": lambda inst, generator: flawed_padded_release(
            inst, workload, EPSILON, DELTA, rng=generator, pmw_config=pmw_config
        ),
        "two_table (Alg 1)": lambda inst, generator: two_table_release(
            inst, workload, EPSILON, DELTA, rng=generator, pmw_config=pmw_config
        ),
    }

    threshold = N / 3.0
    table = ExperimentTable(
        title=f"E1: P[mass(D') > n/3] on I (join size {N}) vs I' (join size 0)",
        columns={
            "algorithm": "algorithm",
            "mean_mass_instance": "mean mass I",
            "mean_mass_neighbor": "mean mass I'",
            "event_probability_instance": "P[event | I]",
            "event_probability_neighbor": "P[event | I']",
            "gap": "gap",
        },
    )
    for name, algorithm in algorithms.items():
        masses_i = []
        masses_neighbor = []
        for _ in range(TRIALS):
            masses_i.append(_dprime_mass(algorithm(pair.instance, rng).synthetic.histogram))
            masses_neighbor.append(
                _dprime_mass(algorithm(pair.neighbor, rng).synthetic.histogram)
            )
        prob_i = float(np.mean([mass > threshold for mass in masses_i]))
        prob_neighbor = float(np.mean([mass > threshold for mass in masses_neighbor]))
        table.add_row(
            algorithm=name,
            mean_mass_instance=float(np.mean(masses_i)),
            mean_mass_neighbor=float(np.mean(masses_neighbor)),
            event_probability_instance=prob_i,
            event_probability_neighbor=prob_neighbor,
            gap=prob_i - prob_neighbor,
        )
    return {"table": table, "epsilon": EPSILON, "delta": DELTA}
