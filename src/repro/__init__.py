"""repro — Differentially private data release over multiple tables.

A from-scratch reproduction of *"Differentially Private Data Release over
Multiple Tables"* (Ghazi, Hu, Kumar, Manurangsi — PODS 2023): synthetic data
release for answering arbitrary linear queries over multi-way joins under
(ε, δ)-differential privacy, including the join-as-one algorithms (two-table
and residual-sensitivity based multi-table), the uniformized-sensitivity
partitioning for two-table and hierarchical joins, the sensitivity toolbox
(local, residual, smooth, degree-based), the lower-bound hard instances, and
baselines for comparison.

Quickstart
----------
>>> from repro import Instance, Workload, two_table_query, release_synthetic_data
>>> query = two_table_query(8, 8, 8)
>>> instance = Instance.from_tuple_lists(
...     query, {"R1": [(0, 1), (1, 1), (2, 3)], "R2": [(1, 4), (3, 5)]}
... )
>>> workload = Workload.random_sign(query, 32, seed=0)
>>> result = release_synthetic_data(instance, workload, epsilon=1.0, delta=1e-6, seed=0)
>>> answers = result.answer_workload(workload)
>>> worst = result.max_error(instance, workload)

The release functions take only the instance, the workload, the budget and
their own parameters.  A :class:`ReleaseResult` is scored through its
``answer_workload``, ``error_report`` and ``max_error``, which answer
through the workload's one evaluator, :func:`shared_evaluator`.
"""

from repro.relational.schema import Attribute, Domain, RelationSchema
from repro.relational.relation import Relation
from repro.relational.hypergraph import (
    AttributeTree,
    JoinQuery,
    chain_query,
    figure4_query,
    path3_query,
    single_table_query,
    star_query,
    triangle_query,
    two_table_query,
)
from repro.relational.instance import Instance
from repro.relational.join import join_size
from repro.queries.linear import ProductQuery, TableQuery
from repro.queries.workload import Workload
from repro.queries.evaluation import ErrorReport, WorkloadEvaluator, shared_evaluator
from repro.mechanisms.spec import PrivacySpec
from repro.sensitivity.local import local_sensitivity
from repro.sensitivity.residual import residual_sensitivity
from repro.core.synthetic import SyntheticDataset
from repro.core.result import ReleaseResult
from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.core.two_table import two_table_release
from repro.core.multi_table import multi_table_release
from repro.core.uniformize import uniformize_release
from repro.core.release import ReleaseMemoryError, release_synthetic_data

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "AttributeTree",
    "Domain",
    "ErrorReport",
    "Instance",
    "JoinQuery",
    "PMWConfig",
    "PrivacySpec",
    "ProductQuery",
    "Relation",
    "RelationSchema",
    "ReleaseMemoryError",
    "ReleaseResult",
    "SyntheticDataset",
    "TableQuery",
    "Workload",
    "WorkloadEvaluator",
    "chain_query",
    "figure4_query",
    "join_size",
    "local_sensitivity",
    "multi_table_release",
    "path3_query",
    "private_multiplicative_weights",
    "release_synthetic_data",
    "residual_sensitivity",
    "shared_evaluator",
    "single_table_query",
    "star_query",
    "triangle_query",
    "two_table_query",
    "two_table_release",
    "uniformize_release",
]
