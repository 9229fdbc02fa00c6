"""Histogram storage is private to the queries package.

Rule DPA103 of :mod:`repro.analysis.lint` flags any access outside
``src/repro/queries/`` to an attribute in ``SESSION_STORAGE_ATTRS``; every
other module talks to histogram sessions purely through the ops
(``answers`` / ``scale_support`` / ``scale`` / ``fill`` / ``total`` /
``accumulate`` / ``averaged_slices`` / ``close``).  This test ties that list
to the live session class.
"""

import numpy as np

from repro.analysis.lint import SESSION_STORAGE_ATTRS
from repro.queries.evaluation import WorkloadEvaluator
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query


def test_rule_lists_every_storage_attribute_of_a_session():
    # A renamed or added storage array must be added to the rule, or the
    # guard would silently stop covering it.
    query = two_table_query(3, 2, 2)
    evaluator = WorkloadEvaluator(Workload.attribute_marginals(query, "A"))
    session = evaluator.histogram_session(np.ones(query.joint_domain_size))
    session.accumulate()  # allocates the accumulator and the flushed weights
    arrays = {name for name, value in vars(session).items() if isinstance(value, np.ndarray)}
    assert len(arrays) == 3
    assert arrays <= SESSION_STORAGE_ATTRS
    assert "_scale" in vars(session) and "_scale" in SESSION_STORAGE_ATTRS  # h = c·g
