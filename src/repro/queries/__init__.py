"""Linear-query workloads over multi-table joins.

A linear query in the paper is a tuple ``q = (q_1, ..., q_m)`` with one weight
function ``q_i : D_i -> [-1, +1]`` per relation; its answer is the weighted
join size ``Σ_t ρ(t)·Π_i q_i(t_i)·R_i(t_i)``.  This subpackage provides the
query objects, standard workload families (counting, predicates, marginals,
ranges, random signs), and exact evaluation against both instances and
released synthetic datasets (:mod:`repro.queries.evaluation`):
``WorkloadEvaluator`` stacks each relation's weights across the workload and
answers every query with one contraction per group of queries, and hands the
PMW loop each query's support and a ``HistogramSession``.  A workload has one
evaluator, ``shared_evaluator``; a release is scored through
:class:`~repro.core.result.ReleaseResult`, whose ``error_report`` wraps the
evaluator's answers in an ``ErrorReport``.
"""
