"""Uniformized sensitivity on a skewed join (Figure 3 / Section 4).

Run with::

    python examples/skewed_join_uniformization.py

The example builds the paper's Figure 3 instance — join values with degrees
1, 2, ..., √n, i.e. a maximally non-uniform degree distribution — and compares
the plain join-as-one algorithm (Algorithm 1) against the uniformized release
(Algorithm 4), together with the theoretical error expressions of
Theorems 3.3 and 4.4.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import Workload, join_size, local_sensitivity, release_synthetic_data
from repro.analysis.bounds import theorem_33_error, theorem_44_error
from repro.analysis.reporting import ExperimentTable
from repro.datagen.synthetic import figure3_instance
from repro.experiments.e06_uniformize_two_table import uniform_bucket_join_sizes
from repro.mechanisms.truncated_laplace import default_lambda

EPSILON = 1.0
DELTA = 1e-4


def main() -> None:
    instance = figure3_instance(n=256)
    query = instance.query
    workload = Workload.random_sign(query, 32, seed=0)

    print(
        f"Figure 3 instance: n = {instance.total_size()}, OUT = {join_size(instance)}, "
        f"Δ = {local_sensitivity(instance)}"
    )

    join_as_one = release_synthetic_data(
        instance, workload, EPSILON, DELTA, method="two_table", seed=1
    )
    uniformized = release_synthetic_data(
        instance, workload, EPSILON, DELTA, method="uniformize_two_table", seed=1
    )

    error_one = join_as_one.max_error(instance, workload)
    error_uniform = uniformized.max_error(instance, workload)

    lam_value = default_lambda(EPSILON, DELTA)
    bound_one = theorem_33_error(
        join_size(instance),
        local_sensitivity(instance),
        query.joint_domain_size,
        len(workload),
        EPSILON,
        DELTA,
    )
    bound_uniform = theorem_44_error(
        uniform_bucket_join_sizes(instance, lam_value),
        local_sensitivity(instance),
        query.joint_domain_size,
        len(workload),
        EPSILON,
        DELTA,
    )

    table = ExperimentTable(
        title="Join-as-one (Algorithm 1) vs uniformized (Algorithm 4)",
        columns={
            "algorithm": "algorithm",
            "error": "measured ℓ∞ error",
            "bound": "theoretical bound",
        },
    )
    table.add_row(algorithm="join-as-one (Thm 3.3)", error=error_one, bound=bound_one)
    table.add_row(algorithm="uniformized (Thm 4.4)", error=error_uniform, bound=bound_uniform)
    print(table)

    buckets = uniformized.diagnostics["buckets"]
    print(f"\nuniformized release used {len(buckets)} degree buckets (released values):")
    for entry in buckets:
        print(
            f"  bucket {entry['bucket']}: noisy total n̂ {entry['noisy_total']:.1f}, "
            f"noisy Δ̃ {entry['delta_tilde']:.1f}"
        )
    print(
        "\nAt asymptotic scales the uniformized bound wins by a polynomial factor "
        "(Example 4.2); at laptop scales the fixed per-bucket noise keeps the plain "
        "algorithm competitive — exactly the trade-off the two theorems describe."
    )


if __name__ == "__main__":
    main()
