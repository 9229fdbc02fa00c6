"""Release results: synthetic data plus run diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.synthetic import SyntheticDataset
from repro.mechanisms.spec import PrivacySpec
from repro.queries.evaluation import ErrorReport, shared_evaluator
from repro.queries.workload import Workload
from repro.relational.instance import Instance


@dataclass
class ReleaseResult:
    """The outcome of one synthetic-data release.

    Attributes
    ----------
    synthetic:
        The released dataset.
    privacy:
        The overall (ε, δ) guarantee, including any group-privacy blow-up of
        the hierarchical uniformization (Lemma 4.11).
    algorithm:
        Name of the algorithm that produced the release.
    diagnostics:
        Algorithm-specific intermediate quantities (noisy sensitivity bound,
        noisy total, iteration count, partition structure, ...).
    """

    synthetic: SyntheticDataset
    privacy: PrivacySpec
    algorithm: str
    diagnostics: dict = field(default_factory=dict)

    def answer_workload(self, workload: Workload) -> np.ndarray:
        return self.synthetic.answer_workload(workload)

    def error_report(self, instance: Instance, workload: Workload) -> ErrorReport:
        """Compare released answers with the exact answers on ``instance``.

        Released answers go through the workload's shared evaluator (one
        contraction per group of stacked queries) rather than per-query
        dense joint vectors, so reporting never materialises ``|Q|``
        vectors of ``|D|`` cells.
        """
        evaluator = shared_evaluator(workload)
        true_answers = evaluator.answers_on_instance(instance)
        released = evaluator.answers_on_histogram(self.synthetic.histogram)
        return ErrorReport.from_answers(true_answers, released, workload.names())

    def max_error(self, instance: Instance, workload: Workload) -> float:
        return self.error_report(instance, workload).max_abs_error

    def __repr__(self) -> str:
        return (
            f"ReleaseResult(algorithm={self.algorithm!r}, privacy={self.privacy}, "
            f"total={self.synthetic.total_mass():.1f})"
        )
