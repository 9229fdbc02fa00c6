"""Algorithm 4: ``Uniformize`` — partition, release per bucket, union.

The instance is partitioned so that every sub-instance has (roughly) uniform
sensitivity; the join-as-one algorithm is run independently on each
sub-instance and the released synthetic datasets are unioned (histograms add).

Privacy accounting:

* **two-table joins** — the partition touches disjoint tuples per join value
  and each tuple ends up in exactly one sub-instance, so the whole algorithm
  is (ε, δ)-DP (Lemma 4.1);
* **hierarchical joins** — a tuple can participate in several sub-instances
  (at most ``O(log^c n)`` by Lemma 4.10), so the guarantee degrades by the
  measured multiplicity through group privacy (Lemma 4.11).  The returned
  :class:`ReleaseResult` carries the conservative, blown-up spec; the nominal
  spec is recorded in the diagnostics, the multiplicity is not.

Both methods share one bucket loop: each bucket's sub-instance gets the
join-as-one release (Algorithm 1 or 3) at (ε/2, δ/2) and the histograms add.
The methods differ only in the partition, that release, the per-bucket label
(``bucket`` or ``configuration``) and the privacy rule.  The diagnostics hold
the partition's λ and, per bucket, its label and the released ``n̂``
(``noisy_total``) and ``Δ̃``; no bucket's true size.
"""

from __future__ import annotations

import numpy as np

from repro.core.hierarchical import partition_hierarchical
from repro.core.multi_table import multi_table_release
from repro.core.partition_two_table import partition_two_table
from repro.core.pmw import PMWConfig
from repro.core.result import ReleaseResult
from repro.core.synthetic import SyntheticDataset
from repro.core.two_table import two_table_release
from repro.mechanisms.composition import basic_composition, group_privacy
from repro.mechanisms.rng import require_generator
from repro.mechanisms.spec import PrivacySpec
from repro.queries.workload import Workload
from repro.relational.instance import Instance


def uniformize_release(
    instance: Instance,
    workload: Workload,
    epsilon: float,
    delta: float,
    *,
    method: str = "auto",
    rng: np.random.Generator,
    pmw_config: PMWConfig | None = None,
) -> ReleaseResult:
    """Release synthetic data with uniformized sensitivities (Algorithm 4).

    Parameters
    ----------
    method:
        ``"two_table"`` forces the Algorithm 5 partition, ``"hierarchical"``
        the Algorithm 6/7 partition, and ``"auto"`` picks two-table when the
        query has exactly two relations and hierarchical otherwise.

    The partition runs at (ε/2, δ/2) and buckets on its own default grid,
    ``λ = (2/ε)·log(2/δ)``: the grid is then as coarse as the partition
    noise, so empty join values do not straddle bucket boundaries.  Every
    per-bucket release answers the workload through its one shared
    evaluator, so the buckets reuse its stacks and box factors.
    """
    require_generator(rng)
    nominal_privacy = PrivacySpec(epsilon, delta)  # refuses a bad budget before any draw
    query = instance.query
    workload.require_compatible(query)
    if method == "auto":
        method = "two_table" if query.num_relations == 2 else "hierarchical"
    if method not in ("two_table", "hierarchical"):
        raise ValueError(f"unknown uniformization method {method!r}")
    if method == "hierarchical" and not query.is_hierarchical():
        raise ValueError(
            "hierarchical uniformization requires a hierarchical join query; "
            "use multi_table_release for general joins"
        )

    histogram = np.zeros(query.shape, dtype=float)
    per_bucket: list[dict] = []

    if method == "two_table":
        partition = partition_two_table(instance, epsilon / 2.0, delta / 2.0, rng=rng)
        release, label_key = two_table_release, "bucket"
        labels = [bucket.index for bucket in partition.buckets]
        # Lemma 4.1: partition (ε/2, δ/2) + parallel releases (ε/2, δ/2).
        privacy = nominal_privacy
        method_diagnostics = {}
    else:
        partition = partition_hierarchical(instance, epsilon / 2.0, delta / 2.0, rng=rng)
        release, label_key = multi_table_release, "configuration"
        labels = [bucket.configuration for bucket in partition.buckets]
        # Lemma 4.11: the partition noise is charged once per attribute a tuple
        # appears under (at most max_i |x_i| times) and the per-bucket releases
        # compose through group privacy over the measured multiplicity.
        multiplicity = partition.tuple_multiplicity(instance)
        attrs_per_relation = max(len(schema.attribute_names) for schema in query.relations)
        partition_spec = PrivacySpec(epsilon / 2.0, delta / 2.0).scaled(attrs_per_relation)
        release_spec = group_privacy(PrivacySpec(epsilon / 2.0, delta / 2.0), multiplicity)
        privacy = basic_composition([partition_spec, release_spec])
        method_diagnostics = {"nominal_privacy": nominal_privacy}

    for bucket, label in zip(partition.buckets, labels):
        result = release(
            bucket.sub_instance,
            workload,
            epsilon / 2.0,
            delta / 2.0,
            rng=rng,
            pmw_config=pmw_config,
        )
        histogram += result.synthetic.histogram
        per_bucket.append(
            {
                label_key: label,
                "noisy_total": result.diagnostics["noisy_total"],
                "delta_tilde": result.diagnostics["delta_tilde"],
            }
        )
        del result  # its histogram is in the union; free it before the next bucket

    return ReleaseResult(
        synthetic=SyntheticDataset(join_query=workload.join_query, histogram=histogram),
        privacy=privacy,
        algorithm=f"uniformize_{method}",
        diagnostics={"lam": partition.lam, "buckets": per_bucket, **method_diagnostics},
    )
