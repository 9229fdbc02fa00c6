"""E8 — Figure 4 / Lemma 4.10 / Theorem C.2: hierarchical uniformization.

The Figure 4 query (five relations over eight attributes) is populated with a
skewed instance; the experiment reports

* the structure of the hierarchical partition (number of sub-instances and the
  per-tuple multiplicity, which Lemma 4.10 bounds by ``O(log^c n)``),
* the per-configuration residual-sensitivity upper bounds of Theorem C.2, and
* the measured error of Algorithm 4 (hierarchical) versus plain Algorithm 3.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import quantity_table
from repro.core.hierarchical import partition_hierarchical
from repro.core.multi_table import default_beta, multi_table_release
from repro.core.pmw import PMWConfig
from repro.core.uniformize import uniformize_release
from repro.mechanisms.rng import resolve_rng
from repro.queries.workload import Workload
from repro.relational.hypergraph import figure4_query
from repro.relational.instance import Instance
from repro.relational.join import join_size
from repro.sensitivity.configurations import (
    configuration_of_instance,
    configuration_residual_upper_bound,
)
from repro.sensitivity.residual import residual_sensitivity

DOMAIN_SIZE = 3
NUM_QUERIES = 10
EPSILON = 1.0
DELTA = 1e-2

# The printed name of each value ``run`` records, in table order.
LABELS = {
    "is_hierarchical": "is hierarchical",
    "input_size": "input size n",
    "join_size": "join size",
    "num_buckets": "partition buckets",
    "tuple_multiplicity": "tuple multiplicity (Lemma 4.10)",
    "exact_rs": "exact RS^β",
    "configuration_rs": "configuration RS^σ bound (Thm C.2)",
    "error_multi_table": "MultiTable (Alg 3) ℓ∞ error",
    "error_uniformized": "Uniformize (Alg 4) ℓ∞ error",
}


def figure4_skewed_instance(
    domain_size: int = 4,
    *,
    heavy_fanout: int = 6,
    light_tuples: int = 6,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> Instance:
    """A skewed instance of the Figure 4 query.

    One (A, B) pair is "heavy": it appears with ``heavy_fanout`` distinct D/F/G
    values in R1–R4; the remaining tuples are spread lightly and uniformly.
    """
    generator = resolve_rng(rng, seed)
    query = figure4_query(domain_size)
    tuples: dict[str, list[tuple]] = {name: [] for name in query.relation_names}
    heavy_a, heavy_b = 0, 0
    for index in range(heavy_fanout):
        value = index % domain_size
        tuples["R1"].append((heavy_a, heavy_b, value))
        tuples["R2"].append((heavy_a, heavy_b, value))
        tuples["R3"].append((heavy_a, heavy_b, value, (index + 1) % domain_size))
        tuples["R4"].append((heavy_a, heavy_b, value, (index + 2) % domain_size))
    tuples["R5"].append((heavy_a, 0))
    for _ in range(light_tuples):
        a = int(generator.integers(1, domain_size))
        b = int(generator.integers(domain_size))
        tuples["R1"].append((a, b, int(generator.integers(domain_size))))
        tuples["R2"].append((a, b, int(generator.integers(domain_size))))
        tuples["R3"].append(
            (a, b, int(generator.integers(domain_size)), int(generator.integers(domain_size)))
        )
        tuples["R4"].append(
            (a, b, int(generator.integers(domain_size)), int(generator.integers(domain_size)))
        )
        tuples["R5"].append((a, int(generator.integers(domain_size))))
    return Instance.from_tuple_lists(query, tuples)


def run(*, seed: int = 0) -> dict:
    """Partition structure, configuration bounds, and release errors on Figure 4."""
    rng = np.random.default_rng(seed)
    instance = figure4_skewed_instance(DOMAIN_SIZE, rng=rng)
    query = instance.query
    workload = Workload.random_sign(query, NUM_QUERIES, rng=rng)
    pmw_config = PMWConfig(max_iterations=10)
    beta = default_beta(EPSILON, DELTA)
    lam_value = 1.0 / beta

    partition = partition_hierarchical(instance, EPSILON / 2.0, DELTA / 2.0, rng=rng)
    multiplicity = partition.tuple_multiplicity(instance)

    configuration = configuration_of_instance(instance, lam_value)
    config_rs = configuration_residual_upper_bound(query, configuration, beta, lam_value)
    exact_rs = residual_sensitivity(instance, beta)

    def release_error(method: str) -> float:
        if method == "multi_table":
            result = multi_table_release(
                instance, workload, EPSILON, DELTA, rng=rng, pmw_config=pmw_config
            )
        else:
            result = uniformize_release(
                instance,
                workload,
                EPSILON,
                DELTA,
                method="hierarchical",
                rng=rng,
                pmw_config=pmw_config,
            )
        return result.max_error(instance, workload)

    values = {
        "is_hierarchical": query.is_hierarchical(),
        "input_size": instance.total_size(),
        "join_size": join_size(instance),
        "num_buckets": partition.num_buckets,
        "tuple_multiplicity": multiplicity,
        "exact_rs": exact_rs,
        "configuration_rs": config_rs,
        "error_multi_table": release_error("multi_table"),
        "error_uniformized": release_error("uniformize"),
    }
    table = quantity_table(
        "E8: Figure 4 hierarchical query — partition structure and release errors",
        LABELS,
        values,
    )
    return {"table": table, "values": values}
