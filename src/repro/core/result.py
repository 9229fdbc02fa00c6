"""Release results: the synthetic data, its guarantee and the mechanisms' outputs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pmw import PMWResult
from repro.core.synthetic import SyntheticDataset
from repro.mechanisms.spec import PrivacySpec
from repro.queries.evaluation import ErrorReport, shared_evaluator
from repro.queries.workload import Workload
from repro.relational.instance import Instance


@dataclass
class ReleaseResult:
    """The outcome of one synthetic-data release, and the way to score it.

    :meth:`answer_workload`, :meth:`error_report` and :meth:`max_error`
    answer through the workload's shared evaluator (one contraction per
    group of stacked queries), so scoring never materialises ``|Q|``
    vectors of ``|D|`` cells.

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
        The mechanisms' outputs (Δ̃, each PMW run's noisy total, rounds and
        per-round ε, the bucket labels) and public parameters (β, λ), each
        once; no exact statistic of the private instance, such as LS or RS^β.
    """

    synthetic: SyntheticDataset
    privacy: PrivacySpec
    algorithm: str
    diagnostics: dict = field(default_factory=dict)

    @classmethod
    def from_pmw(
        cls,
        algorithm: str,
        workload: Workload,
        pmw: PMWResult,
        privacy: PrivacySpec,
        *,
        diagnostics: dict | None = None,
    ) -> "ReleaseResult":
        """The release of ``algorithm`` whose histogram is one PMW run's.

        The diagnostics are ``diagnostics`` followed by the run's noisy
        total, iteration count and per-round ε.
        """
        return cls(
            synthetic=SyntheticDataset(join_query=workload.join_query, histogram=pmw.histogram),
            privacy=privacy,
            algorithm=algorithm,
            diagnostics={
                **(diagnostics or {}),
                "noisy_total": pmw.noisy_total,
                "iterations": pmw.iterations,
                "epsilon_per_round": pmw.epsilon_per_round,
            },
        )

    def answer_workload(self, workload: Workload) -> np.ndarray:
        """Answers of every workload query on the released histogram.

        Raises ``ValueError`` for a workload over another join, even one of the same |D|.
        """
        workload.require_compatible(self.synthetic.join_query)
        return shared_evaluator(workload).answers_on_histogram(self.synthetic.histogram)

    def error_report(self, instance: Instance, workload: Workload) -> ErrorReport:
        """Compare released answers with the exact answers on ``instance``."""
        true_answers = shared_evaluator(workload).answers_on_instance(instance)
        released = self.answer_workload(workload)
        return ErrorReport.from_answers(true_answers, released, workload.names())

    def max_error(self, instance: Instance, workload: Workload) -> float:
        """The ℓ∞ error ``max_q |q(I) − q(F)|`` of the release."""
        return self.error_report(instance, workload).max_abs_error

    def __repr__(self) -> str:
        return (
            f"ReleaseResult(algorithm={self.algorithm!r}, privacy={self.privacy}, "
            f"total={self.synthetic.total_mass():.1f})"
        )
