"""E14 — empirical privacy audit of the release algorithms.

Lemmas 3.2, 3.7, and 4.1 assert (ε, δ)-DP analytically; this experiment is the
empirical counterpart: run the algorithm many times on a neighbouring pair of
instances, discretise a released statistic into bins, and estimate the
empirical privacy loss

    max_bin  log( (P̂[bin | I] − δ) / P̂[bin | I'] )

which should stay below ε up to estimation noise.  It is a *sanity check*,
not a proof — but it catches gross accounting mistakes (e.g. the flawed
variants of Section 3.1 blow the bound dramatically, which the E1 experiment
shows in a more targeted way).

The statistical audit is complemented by an *accounting* audit: every trial
runs under an ambient :class:`~repro.mechanisms.ledger.PrivacyLedger`, so
each PMW invocation charges its realised Lemma 3.2 budget split into the
odometer.  The composed spend is then checked against the declared budget
(``2 · trials`` releases at (ε, δ) each) with
:meth:`~repro.mechanisms.ledger.PrivacyLedger.assert_within` — a release
that silently overspends its declared budget fails the experiment outright,
no sampling noise involved.  The audit's ledger sees E14's runs alone; a
ledger scoped around it, such as the CLI's run ledger, records them too.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import quantity_table
from repro.core.pmw import PMWConfig
from repro.core.two_table import two_table_release
from repro.datagen.synthetic import uniform_two_table
from repro.mechanisms.ledger import PrivacyLedger, use_ledger
from repro.mechanisms.spec import PrivacySpec
from repro.queries.workload import Workload
from repro.relational.neighbors import random_neighbor

NUM_VALUES = 4
DEGREE = 3
EPSILON = 1.0
DELTA = 1e-4
TRIALS = 60
NUM_BINS = 8

# The printed name of each value ``run`` records, in table order.
LABELS = {
    "declared_epsilon": "declared ε",
    "declared_delta": "declared δ",
    "trials": "trials per instance",
    "empirical_epsilon": "empirical ε estimate",
    "mean_total_instance": "mean total | I",
    "mean_total_neighbor": "mean total | I'",
    "ledger_charges": "ledger charges",
    "spent_epsilon": "ledger ε spent (of budget)",
    "remaining_epsilon": "ledger ε remaining",
}


def _empirical_epsilon(
    samples_instance: np.ndarray,
    samples_neighbor: np.ndarray,
    delta: float,
    num_bins: int,
) -> float:
    """Largest one-sided log-likelihood ratio over a shared binning."""
    lo = float(min(samples_instance.min(), samples_neighbor.min()))
    hi = float(max(samples_instance.max(), samples_neighbor.max()))
    if hi <= lo:
        return 0.0
    edges = np.linspace(lo, hi, num_bins + 1)
    trials = len(samples_instance)
    hist_instance, _ = np.histogram(samples_instance, bins=edges)
    hist_neighbor, _ = np.histogram(samples_neighbor, bins=edges)
    p = hist_instance / trials
    q = hist_neighbor / trials
    floor = 1.0 / trials
    worst = 0.0
    for direction_p, direction_q in ((p, q), (q, p)):
        numerator = np.maximum(direction_p - delta, 0.0)
        ratio = numerator / np.maximum(direction_q, floor)
        positive = ratio[numerator > 0]
        if positive.size:
            worst = max(worst, float(np.log(positive.max())))
    return worst


def run(*, seed: int = 0) -> dict:
    """Audit Algorithm 1's released total mass across a neighbouring pair."""
    rng = np.random.default_rng(seed)
    instance = uniform_two_table(NUM_VALUES, DEGREE)
    neighbor = random_neighbor(instance, rng)
    workload = Workload.counting(instance.query)
    pmw_config = PMWConfig(max_iterations=4)

    def sample_totals(target) -> np.ndarray:
        totals = []
        for _ in range(TRIALS):
            result = two_table_release(
                target, workload, EPSILON, DELTA, rng=rng, pmw_config=pmw_config
            )
            totals.append(result.synthetic.total_mass())
        return np.array(totals)

    # Accounting audit: every PMW call inside the releases charges the
    # ambient ledger, and the composed spend must stay within the declared
    # budget of 2·trials releases at (ε, δ) each (tiny headroom absorbs the
    # float rounding of summing the per-release budget splits).
    releases = 2 * TRIALS
    budget = PrivacySpec(
        EPSILON * releases * (1.0 + 1e-9),
        min(DELTA * releases * (1.0 + 1e-9), 0.5),
    )
    ledger = PrivacyLedger()
    with use_ledger(ledger):
        samples_instance = sample_totals(instance)
        samples_neighbor = sample_totals(neighbor)
    spent = ledger.assert_within(budget)
    remaining = ledger.remaining(budget)
    values = {
        "declared_epsilon": EPSILON,
        "declared_delta": DELTA,
        "trials": TRIALS,
        "empirical_epsilon": _empirical_epsilon(
            samples_instance, samples_neighbor, DELTA, NUM_BINS
        ),
        "mean_total_instance": float(samples_instance.mean()),
        "mean_total_neighbor": float(samples_neighbor.mean()),
        "ledger_charges": len(ledger),
        "spent_epsilon": spent.epsilon if spent else 0.0,
        "remaining_epsilon": remaining.epsilon,
    }
    table = quantity_table(
        "E14: empirical privacy audit of Algorithm 1 (released total mass)", LABELS, values
    )
    return {
        "table": table,
        "values": values,
        "budget_epsilon": budget.epsilon,
        "budget_exhausted": remaining.exhausted,
    }
