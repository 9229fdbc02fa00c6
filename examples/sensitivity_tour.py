"""A tour of the sensitivity toolbox.

Run with::

    python examples/sensitivity_tour.py

Computes, for several join-query shapes and instances, the quantities the
paper's algorithms are built on: local sensitivity, maximum boundary queries
``T_E``, residual sensitivity ``RS^β``, the brute-force smooth sensitivity on
a tiny instance, the q-aggregate degree upper bounds of Section 4.2.1, and
the AGM worst-case exponents of Appendix B.3.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import Instance, join_size, two_table_query
from repro.analysis.agm import fractional_edge_cover_number, worst_case_sensitivity_exponent
from repro.analysis.reporting import ExperimentTable
from repro.datagen.tpch import generate_tpch
from repro.relational.hypergraph import figure4_query, path3_query
from repro.sensitivity.boundary import all_boundary_queries
from repro.sensitivity.degrees import t_upper_bound
from repro.sensitivity.local import local_sensitivity, per_relation_local_sensitivity
from repro.sensitivity.residual import residual_sensitivity_profile
from repro.sensitivity.smooth import smooth_sensitivity_bruteforce


def two_table_section() -> None:
    print("=" * 70)
    print("Two-table join R1(A, B) ⋈ R2(B, C)")
    query = two_table_query(4, 3, 4)
    instance = Instance.from_tuple_lists(
        query,
        {"R1": [(0, 0), (1, 0), (2, 0), (3, 1)], "R2": [(0, 0), (0, 1), (1, 2), (2, 3)]},
    )
    print(f"n = {instance.total_size()}, OUT = {join_size(instance)}")
    print(f"per-relation local sensitivity: {per_relation_local_sensitivity(instance)}")
    print(f"LS_count(I) = {local_sensitivity(instance)}")
    print(f"smooth sensitivity (brute force, β=0.5): "
          f"{smooth_sensitivity_bruteforce(instance, 0.5, max_distance=2):.3f}")
    profile = residual_sensitivity_profile(instance, beta=0.5)
    print(f"residual sensitivity RS^0.5 = {profile.value:.3f} (maximising k = {profile.maximizing_k})")
    print("boundary queries T_E:")
    for subset, value in sorted(all_boundary_queries(instance).items(), key=lambda kv: sorted(kv[0])):
        names = [query.relation_names[i] for i in sorted(subset)] or ["∅"]
        print(f"  T_{{{', '.join(names)}}} = {value}")


def tpch_section() -> None:
    print("=" * 70)
    print("TPC-H-style 3-table chain Nation ⋈ Customer ⋈ Orders")
    data = generate_tpch(1.0, seed=0)
    instance = data.nation_customer_orders
    print(f"n = {instance.total_size()}, OUT = {join_size(instance)}")
    print(f"LS_count(I) = {local_sensitivity(instance)}")
    for beta in (0.05, 0.1, 0.5):
        profile = residual_sensitivity_profile(instance, beta=beta)
        print(f"RS^{beta:g} = {profile.value:.1f} (maximising k = {profile.maximizing_k})")


def hierarchical_section() -> None:
    print("=" * 70)
    print("Hierarchical Figure-4 query: q-aggregate upper bounds on T_E")
    query = figure4_query(3)
    instance = Instance.from_tuple_lists(
        query,
        {
            "R1": [(0, 0, 0), (0, 0, 1), (0, 1, 2)],
            "R2": [(0, 0, 2), (0, 1, 0)],
            "R3": [(0, 0, 1, 1), (0, 0, 2, 0)],
            "R4": [(0, 0, 1, 2)],
            "R5": [(0, 2), (1, 1)],
        },
    )
    for excluded in range(query.num_relations):
        subset = sorted(set(range(query.num_relations)) - {excluded})
        bound = t_upper_bound(instance, subset)
        names = [query.relation_names[i] for i in subset]
        factor_text = " · ".join(
            f"mdeg_{{{','.join(query.relation_names[j] for j in sorted(f.relation_subset))}}}"
            f"({','.join(sorted(f.group_attributes)) or '∅'})={f.value:g}"
            for f in bound.factors
        )
        print(f"  T_{{{', '.join(names)}}} ≤ {bound.value:g}   [{factor_text}]")


def agm_section() -> None:
    print("=" * 70)
    print("AGM exponents (Appendix B.3 worst-case analysis)")
    table = ExperimentTable(
        title="fractional edge cover numbers",
        columns={"query": "query", "rho": "ρ(H)", "residual_exponent": "max_E ρ(H_E,∂E)"},
    )
    shapes = {
        "two-table": two_table_query(2, 2, 2),
        "3-chain": path3_query(2, 2, 2, 2),
        "figure-4": figure4_query(2),
    }
    for name, query in shapes.items():
        table.add_row(
            query=name,
            rho=fractional_edge_cover_number(query),
            residual_exponent=worst_case_sensitivity_exponent(query),
        )
    print(table)


def main() -> None:
    two_table_section()
    tpch_section()
    hierarchical_section()
    agm_section()


if __name__ == "__main__":
    main()
