"""TPC-H-style analytics under differential privacy.

Run with::

    python examples/tpch_analytics.py

The example generates scaled-down TPC-H-style tables (see
``repro.datagen.tpch`` for the substitution notes), releases synthetic data
for the Customer ⋈ Orders join and the Nation ⋈ Customer ⋈ Orders chain, and
compares three ways of answering an analyst workload:

* exact (non-private) answers;
* one DP synthetic-data release answering every query (this paper);
* per-query Laplace noise under basic composition (the baseline the paper's
  introduction argues against).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro import Workload, join_size, release_synthetic_data, shared_evaluator
from repro.analysis.reporting import ExperimentTable
from repro.baselines.independent_laplace import independent_laplace_answers
from repro.datagen.tpch import generate_tpch

EPSILON = 1.0
DELTA = 1e-5


def run_join(instance, workload, label: str, table: ExperimentTable) -> None:
    release = release_synthetic_data(instance, workload, EPSILON, DELTA, seed=7)
    laplace = independent_laplace_answers(
        instance, workload, EPSILON, DELTA, rng=np.random.default_rng(8)
    )

    synthetic_error = release.max_error(instance, workload)
    exact = shared_evaluator(workload).answers_on_instance(instance)
    laplace_error = float(np.max(np.abs(laplace.answers - exact)))
    table.add_row(
        join=label,
        n=instance.total_size(),
        join_size=join_size(instance),
        num_queries=len(workload),
        synthetic_error=synthetic_error,
        laplace_error=laplace_error,
    )


def main() -> None:
    data = generate_tpch(scale=1.0, seed=3)
    table = ExperimentTable(
        title=f"TPC-H-style joins under ({EPSILON}, {DELTA})-DP (ℓ∞ error)",
        columns={
            "join": "join",
            "n": "n",
            "join_size": "OUT",
            "num_queries": "|Q|",
            "synthetic_error": "synthetic release",
            "laplace_error": "per-query Laplace",
        },
    )

    # Customer ⋈ Orders: marginals on market segment and order priority.
    customer_orders = data.customer_orders
    marginal_workload = Workload.attribute_marginals(
        customer_orders.query, "segment"
    ).extended(
        Workload.attribute_marginals(
            customer_orders.query, "priority", include_counting=False
        ).queries
    )
    run_join(customer_orders, marginal_workload, "Customer ⋈ Orders", table)

    # Nation ⋈ Customer ⋈ Orders: random predicate workload.
    chain = data.nation_customer_orders
    predicate_workload = Workload.random_predicates(
        chain.query, 32, selectivity=0.4, seed=5
    )
    run_join(chain, predicate_workload, "Nation ⋈ Customer ⋈ Orders", table)

    print(table)
    print()
    print(
        "The synthetic release answers the whole workload from one DP artefact, \n"
        "while the per-query baseline splits the budget across |Q| queries and \n"
        "degrades as the workload grows."
    )


if __name__ == "__main__":
    main()
