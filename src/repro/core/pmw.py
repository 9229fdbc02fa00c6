"""Algorithm 2: the private multiplicative weights routine ``PMW_{ε, δ, Δ̃}``.

This is the single-table PMW/MWEM algorithm of Hardt–Ligett–McSherry,
parameterised — as in the paper — by an externally supplied sensitivity bound
``Δ̃`` (the noisy local/residual sensitivity handed in by Algorithms 1 and 3):

1. the total count is released once with truncated Laplace noise of
   sensitivity ``Δ̃`` (budget ε/2, δ/2);
2. the remaining budget drives ``k`` adaptive rounds, each selecting the
   currently worst-approximated workload query with the exponential mechanism
   and measuring it with sensitivity-``Δ̃`` Laplace noise at ε';
3. each measurement multiplicatively re-weights the joint-domain histogram,
   and the released synthetic dataset is the average of the iterates.

**Budget split (Lemma 3.2).**  The overall (ε, δ) budget of one PMW
invocation is divided exactly in half: (ε/2, δ/2) pays for the noisy total
count of step 1, and the *remaining* (ε/2, δ/2) funds the ``k`` adaptive
rounds — the iteration count and the per-round ε' are both derived from the
remaining half, not from the full budget.  When ``PMWConfig.force_total``
bypasses the noisy total (the flawed Section 3.1 reproductions), no budget is
spent on step 1 and the rounds draw from the full (ε, δ).  The realised split
is recorded in ``PMWResult.total_privacy`` / ``PMWResult.rounds_privacy``.

The iteration count defaults to the appendix optimum
``k* = n̂·ε·√(log |D|) / (Δ̃·log |Q|·√(log 1/δ))`` (evaluated at the rounds
budget), at least one and at most ``PMWConfig.max_iterations``.

**Evaluator.**  The routine takes only (I, Q, ε, δ, Δ̃), as in the paper: it
answers the workload through the workload's one evaluator,
:func:`~repro.queries.evaluation.shared_evaluator`, and keeps the histogram
in a :class:`~repro.queries.evaluation.HistogramSession` that it drives
through the session's op protocol.  Each round rescales only the selected
query's support box and carries the answers where the session returns how
they move; :mod:`repro.queries.evaluation` describes the supports, the
carried answers, the session's storage and their drift bounds.

**Telemetry.**  When :mod:`repro.telemetry` is enabled, a run is one
``pmw.run`` span carrying its ``epsilon``, ``delta``, ``iterations``,
``noisy_total`` and ``epsilon_per_round`` as attributes, and containing a
``pmw.round`` span per iteration (each full workload evaluation and the
multiplicative update as ``pmw.scores``/``pmw.update`` sub-spans, the
selected query attached as an attribute); a guarded renormalisation reset
is a ``pmw.reset`` span.  Budget spend is the ledger's record, not
telemetry's (see Accounting); the run spans' (ε, δ) record each run's
budget apart from it, so the two can be checked against each other.
The instrumentation never touches the RNG, so selections are bitwise
identical with telemetry on or off.

**Accounting.**  When an ambient :class:`~repro.mechanisms.ledger.PrivacyLedger`
is installed (:func:`repro.mechanisms.ledger.use_ledger`), each invocation
charges its realised budget split — ``pmw.total`` for the noisy total count
and ``pmw.rounds`` for the adaptive rounds — to every ledger in scope, so
end-to-end runs can be audited against a declared budget without threading
a ledger through every release-algorithm signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, inf, log, sqrt

import numpy as np

from repro.mechanisms.composition import per_step_epsilon_for_advanced_composition
from repro.mechanisms.exponential import exponential_mechanism
from repro.mechanisms.laplace import sample_laplace
from repro.mechanisms.ledger import ambient_ledgers
from repro.mechanisms.rng import require_generator
from repro.mechanisms.spec import PrivacySpec
from repro.mechanisms.truncated_laplace import sample_truncated_laplace
from repro.core.synthetic import assemble_flat_histogram
from repro.telemetry import trace
from repro.queries.evaluation import shared_evaluator
from repro.queries.workload import Workload
from repro.relational.instance import Instance
from repro.relational.join import join_size


@dataclass(frozen=True)
class PMWConfig:
    """Tuning knobs for the PMW routine.

    Attributes
    ----------
    num_iterations:
        Fixed iteration count, at least one; ``None`` selects the appendix
        optimum.
    max_iterations:
        Upper clamp, at least one, for the automatically chosen iteration
        count (the lower clamp is one round).
    force_total:
        **Not differentially private.**  Overrides the noisy total count n̂
        with the given value; used only by the flawed-baseline reproductions
        of Section 3.1 (Example 3.1) to demonstrate why releasing the exact
        join size breaks DP.
    """

    num_iterations: int | None = None
    max_iterations: int = 60
    force_total: float | None = None

    def __post_init__(self) -> None:
        for name in ("num_iterations", "max_iterations"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass
class PMWResult:
    """Raw output of one PMW run (before being wrapped in a ReleaseResult).

    It holds what the run released, not the arguments it was given.
    ``total_privacy`` and ``rounds_privacy`` record how the overall budget was
    split between the noisy total count and the adaptive rounds (Lemma 3.2);
    ``total_privacy`` is ``None`` when ``force_total`` bypassed the release.
    """

    histogram: np.ndarray
    noisy_total: float
    iterations: int
    epsilon_per_round: float
    selected_queries: list[int] = field(default_factory=list)
    total_privacy: PrivacySpec | None = None
    rounds_privacy: PrivacySpec | None = None


def _auto_iterations(
    noisy_total: float,
    epsilon: float,
    delta: float,
    sensitivity_bound: float,
    domain_size: int,
    num_queries: int,
    config: PMWConfig,
) -> int:
    """The appendix-optimal iteration count, clamped to ``[1, max_iterations]``."""
    if config.num_iterations is not None:
        return config.num_iterations
    log_domain = max(log(max(domain_size, 2)), 1.0)
    log_queries = max(log(max(num_queries, 2)), 1.0)
    log_delta = max(log(1.0 / delta), 1.0)
    optimum = (
        noisy_total
        * epsilon
        * sqrt(log_domain)
        / (max(sensitivity_bound, 1.0) * log_queries * sqrt(log_delta))
    )
    iterations = int(ceil(optimum)) if optimum > 0 else 1
    return int(min(max(iterations, 1), config.max_iterations))


def _renormalize(session, noisy_total: float, domain_size: int) -> float | None:
    """Rescale the session histogram back to total mass ``noisy_total``.

    Returns the scale applied, or ``None`` after a reset.

    Guarded against degenerate totals: a fully clamped/underflowed
    histogram reports total 0 and a corrupted one NaN or inf — dividing by
    either would spread NaN through every cell.  Such sessions are reset to
    the uniform histogram the iterates start from.
    """
    total = session.total()
    if np.isfinite(total) and total > 0.0:
        scale = noisy_total / total
        session.scale(scale)
        return scale
    with trace("pmw.reset"):
        session.fill(noisy_total / domain_size)
    return None


def _update(
    session,
    indices: np.ndarray,
    factors: np.ndarray,
    noisy_total: float,
    domain_size: int,
    answers: np.ndarray,
) -> np.ndarray | None:
    """One multiplicative update and renormalisation; returns the new answers.

    The answers are carried as ``(answers + change)·scale`` when the session
    reported the change of its support update and the renormalisation was a
    plain rescale, and ``None`` otherwise: the caller must then evaluate
    the workload again.
    """
    change = session.scale_support(indices, factors)
    scale = _renormalize(session, noisy_total, domain_size)
    if change is None or scale is None:
        return None
    return (answers + change) * scale


def private_multiplicative_weights(
    instance: Instance,
    workload: Workload,
    epsilon: float,
    delta: float,
    sensitivity_bound: float,
    *,
    rng: np.random.Generator,
    config: PMWConfig | None = None,
) -> PMWResult:
    """Run ``PMW_{ε, δ, Δ̃}`` on an instance and return the averaged histogram.

    Parameters
    ----------
    instance:
        The multi-table instance; only its exact query answers and join size
        are consumed (the join itself is never materialised).
    workload:
        The query family ``Q`` the synthetic data should answer well.
    epsilon, delta:
        Overall budget of this PMW invocation (the caller is responsible for
        the budget spent on estimating ``sensitivity_bound``).  Internally
        split per Lemma 3.2: (ε/2, δ/2) for the noisy total, the remaining
        (ε/2, δ/2) for the adaptive rounds.
    sensitivity_bound:
        The noisy sensitivity bound ``Δ̃`` — must upper bound the change of any
        workload answer between neighbouring instances.
    rng:
        The Generator every draw of the run comes from.
    """
    require_generator(rng)
    if not 0 < epsilon < inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 0 < sensitivity_bound < inf:
        raise ValueError(
            f"sensitivity bound must be positive and finite, got {sensitivity_bound}"
        )
    config = config or PMWConfig()
    evaluator = shared_evaluator(workload)

    join_query = workload.join_query
    domain_size = join_query.joint_domain_size

    with trace(
        "pmw.run", queries=len(workload), domain=domain_size, epsilon=epsilon, delta=delta
    ) as run_span:
        # Step 1: release the total count with one-sided truncated Laplace noise
        # ((ε/2, δ/2) of the budget), unless a flawed-baseline override is active.
        true_total = join_size(instance)
        if config.force_total is not None:
            noisy_total = float(config.force_total)
            total_privacy = None
            rounds_epsilon, rounds_delta = epsilon, delta
        else:
            noise = sample_truncated_laplace(
                sensitivity_bound, epsilon / 2.0, delta / 2.0, rng=rng
            )
            noisy_total = float(true_total) + float(noise)
            total_privacy = PrivacySpec(epsilon / 2.0, delta / 2.0)
            rounds_epsilon, rounds_delta = epsilon / 2.0, delta / 2.0
        rounds_privacy = PrivacySpec(rounds_epsilon, rounds_delta)

        # Accounting: record the realised Lemma-3.2 split into every ambient
        # ledger in scope (one charge per budget half, none when force_total
        # bypassed the total release).  Charging never touches the RNG, so an
        # installed ledger cannot change selections.
        for ledger in ambient_ledgers():
            if total_privacy is not None:
                ledger.charge("pmw.total", total_privacy)
            ledger.charge("pmw.rounds", rounds_privacy)

        if noisy_total <= 0:
            run_span.set(iterations=0, noisy_total=noisy_total, epsilon_per_round=0.0)
            histogram = np.zeros(join_query.shape, dtype=float)
            return PMWResult(
                histogram=histogram,
                noisy_total=noisy_total,
                iterations=0,
                epsilon_per_round=0.0,
                total_privacy=total_privacy,
                rounds_privacy=rounds_privacy,
            )

        # Step 2: the adaptive rounds draw from the *remaining* budget (Lemma 3.2),
        # each at Algorithm 2's per-round ε'.
        iterations = _auto_iterations(
            noisy_total,
            rounds_epsilon,
            rounds_delta,
            sensitivity_bound,
            domain_size,
            len(workload),
            config,
        )
        epsilon_per_round = per_step_epsilon_for_advanced_composition(
            rounds_epsilon, iterations, rounds_delta
        )
        run_span.set(
            iterations=iterations,
            noisy_total=noisy_total,
            epsilon_per_round=epsilon_per_round,
        )

        # Step 3: multiplicative weights over the joint domain.  The update
        # rescales only the selected query's support box (the factor is
        # exp(0) = 1 elsewhere), with factors over only the axes the query's
        # weights are held on, which the session broadcasts onto the box (a
        # one-way marginal's are one cell).  Where |Q|·|D| is over the
        # evaluator's 2^20-cell budget, the answers are carried across rounds
        # from the change the update reports; the workload is evaluated in
        # full only when there are no carried answers (see _update).  The
        # histogram lives in a session driven purely through its op protocol:
        # each round sends only the support delta and the renormalisation
        # scale, and the averaged iterates accumulate inside the session.
        true_answers = evaluator.answers_on_instance(instance)
        # The session copies its start, so a broadcast view costs no |D|-sized array.
        session = evaluator.histogram_session(
            np.broadcast_to(noisy_total / domain_size, domain_size)
        )
        selected: list[int] = []
        current_answers = None

        try:
            for round_index in range(iterations):
                with trace("pmw.round", round=round_index) as round_span:
                    if current_answers is None:
                        with trace("pmw.scores"):
                            current_answers = session.answers()
                    # |q(F) − q(I)|/Δ̃: the paper's sensitivity-one scores.
                    scores = np.abs(current_answers - true_answers) / sensitivity_bound
                    query_index = exponential_mechanism(scores, epsilon_per_round, rng=rng)
                    selected.append(query_index)
                    round_span.set(selected=query_index)

                    measurement = float(true_answers[query_index]) + sample_laplace(
                        sensitivity_bound, epsilon_per_round, rng=rng
                    )
                    with trace("pmw.update"):
                        # Fresh values this loop owns: they become the factors in place.
                        support_indices, factors = evaluator.query_support(query_index)
                        step = (measurement - float(current_answers[query_index])) / (
                            2.0 * noisy_total
                        )
                        np.multiply(factors, step, out=factors)
                        # The analysis assumes an exponent of magnitude at most one.
                        np.clip(factors, -1.0, 1.0, out=factors)
                        np.exp(factors, out=factors)
                        current_answers = _update(
                            session,
                            support_indices,
                            factors,
                            noisy_total,
                            domain_size,
                            current_answers,
                        )
                        del factors  # applied: not alive beside the next round's
                        session.accumulate()
            flat_average = assemble_flat_histogram(
                domain_size, session.averaged_slices(iterations)
            )
        finally:
            session.close()

    histogram = flat_average.reshape(join_query.shape)
    return PMWResult(
        histogram=histogram,
        noisy_total=noisy_total,
        iterations=iterations,
        epsilon_per_round=epsilon_per_round,
        selected_queries=selected,
        total_privacy=total_privacy,
        rounds_privacy=rounds_privacy,
    )
