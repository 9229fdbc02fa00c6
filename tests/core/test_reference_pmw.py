"""Algorithm 2 written the textbook way, and every release checked against it.

:func:`reference_pmw` is the paper's Algorithm 2 — MWEM (Hardt, Ligett and
McSherry, NeurIPS 2012) with the Lemma 3.2 budget split — kept as plain as
it gets: a dense ``|Q| × |D|`` matrix of ``ProductQuery.joint_values()``, true
answers of that matrix against the materialised join, an eager float64
histogram evaluated in full every round, and an eager float64 average.  It
makes the same mechanism calls in the same draw order as
:func:`repro.core.pmw.private_multiplicative_weights`, so on the same seed
the two select the same queries and release the same histogram up to
rounding: 1e-12 relative, since the BLAS kernel alone moves its last bits.

The tests patch it in for ``private_multiplicative_weights`` under
Algorithms 1, 3 and 4 (two-table and hierarchical partitions) and the
single-table path, on hypothesis-drawn instances and workloads — the
counting query, a marginal, ±1 queries, random predicates (``np.ix_``
boxes) and sometimes an all-zero query — over the evaluator tests' joins
(the 17-attribute chain aside: Algorithm 3's residual sensitivity over 16
relations takes minutes) and a one-relation join.  The real path runs
twice: under the default ``_MATRIX_CELL_BUDGET`` of 2^20 matrix cells,
above every drawn ``|Q|·|D|``, so that every round is evaluated in full,
and with the budget patched to 0, so that its answers are carried.  Either
way each round's factors span only the axes the selected query's weights
are held on, and the session broadcasts them onto the query's box.
"""

from math import ceil, log, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import multi_table, release, two_table
from repro.core.pmw import PMWConfig, PMWResult, private_multiplicative_weights
from repro.core.release import release_synthetic_data
from repro.mechanisms.exponential import exponential_mechanism
from repro.mechanisms.laplace import sample_laplace
from repro.mechanisms.spec import PrivacySpec
from repro.mechanisms.truncated_laplace import sample_truncated_laplace
from repro.queries import evaluation
from repro.queries.linear import ProductQuery, TableQuery
from repro.queries.workload import Workload
from repro.relational.hypergraph import single_table_query
from repro.relational.instance import Instance
from tests.queries.test_factored_evaluation import JOINS
from tests.relational.test_oracles import join_result


def reference_pmw(
    instance, workload, epsilon, delta, sensitivity_bound, *, rng, config=None
) -> PMWResult:
    """``PMW_{ε, δ, Δ̃}`` over a dense query matrix and an eager histogram."""
    config = config or PMWConfig()
    shape = workload.join_query.shape
    domain_size = workload.join_query.joint_domain_size
    matrix = np.array([product.joint_values().reshape(-1) for product in workload])
    join = join_result(instance, dtype=np.float64).reshape(-1)
    true_answers = matrix @ join

    # Lemma 3.2: (ε/2, δ/2) releases the total and the rest funds the rounds.
    if config.force_total is not None:
        noisy_total, total_privacy = float(config.force_total), None
        rounds_epsilon, rounds_delta = epsilon, delta
    else:
        noise = sample_truncated_laplace(sensitivity_bound, epsilon / 2.0, delta / 2.0, rng=rng)
        noisy_total = float(join.sum()) + float(noise)
        total_privacy = PrivacySpec(epsilon / 2.0, delta / 2.0)
        rounds_epsilon, rounds_delta = epsilon / 2.0, delta / 2.0
    spent = dict(
        noisy_total=noisy_total,
        total_privacy=total_privacy,
        rounds_privacy=PrivacySpec(rounds_epsilon, rounds_delta),
    )
    if noisy_total <= 0:
        return PMWResult(histogram=np.zeros(shape), iterations=0, epsilon_per_round=0.0, **spent)

    # The appendix optimum k*, at the rounds' budget, clamped to [1, max_iterations].
    iterations = config.num_iterations
    if iterations is None:
        optimum = (
            noisy_total
            * rounds_epsilon
            * sqrt(max(log(max(domain_size, 2)), 1.0))
            / (
                max(sensitivity_bound, 1.0)
                * max(log(max(len(workload), 2)), 1.0)
                * sqrt(max(log(1.0 / rounds_delta), 1.0))
            )
        )
        iterations = min(max(ceil(optimum) if optimum > 0 else 1, 1), config.max_iterations)
    epsilon_per_round = rounds_epsilon / (
        16.0 * sqrt(iterations * max(log(1.0 / rounds_delta), 1.0))
    )

    histogram = np.full(domain_size, noisy_total / domain_size)
    average = np.zeros(domain_size)
    selected = []
    for _ in range(iterations):
        answers = matrix @ histogram
        scores = np.abs(answers - true_answers) / sensitivity_bound
        index = exponential_mechanism(scores, epsilon_per_round, rng=rng)
        selected.append(index)
        measurement = true_answers[index] + sample_laplace(
            sensitivity_bound, epsilon_per_round, rng=rng
        )
        step = (measurement - answers[index]) / (2.0 * noisy_total)
        histogram *= np.exp(np.clip(matrix[index] * step, -1.0, 1.0))
        total = histogram.sum()
        if np.isfinite(total) and total > 0.0:
            histogram *= noisy_total / total
        else:  # a degenerate total restarts from the uniform histogram
            histogram.fill(noisy_total / domain_size)
        average += histogram
    return PMWResult(
        histogram=(average / iterations).reshape(shape),
        iterations=iterations,
        epsilon_per_round=epsilon_per_round,
        selected_queries=selected,
        **spent,
    )


# --------------------------------------------------------------------------- #
# the releases against it
# --------------------------------------------------------------------------- #

SHAPES = {name: query for name, query in JOINS.items() if name != "wide"}
SHAPES["single"] = single_table_query({"X": 4, "Y": 6})

METHODS = {
    "single_table": ["single"],
    "two_table": ["two_table"],
    "multi_table": [name for name in SHAPES if name != "single"],
    "uniformize_two_table": ["two_table"],
    "uniformize_hierarchical": [
        name for name, query in SHAPES.items() if name != "single" and query.is_hierarchical()
    ],
}


@st.composite
def _releases(draw, method):
    query = SHAPES[draw(st.sampled_from(METHODS[method]))]
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    most = draw(st.integers(1, 4))
    instance = Instance.from_frequencies(
        query, {schema.name: rng.integers(0, most, size=schema.shape) for schema in query.relations}
    )
    marginal = draw(st.sampled_from(query.attribute_names))
    extra = list(Workload.attribute_marginals(query, marginal, include_counting=False).queries)
    for generate, count in (
        (Workload.random_sign, draw(st.integers(0, 3))),
        (Workload.random_predicates, draw(st.integers(0, 3))),
    ):
        if count:
            extra += generate(query, count, seed=seed + count, include_counting=False).queries
    if draw(st.booleans()):
        last = query.relations[-1]
        extra.append(ProductQuery(query, [TableQuery(last.name, np.zeros(last.shape))]))
    workload = Workload.counting(query).extended(extra)
    iterations = draw(st.one_of(st.none(), st.integers(1, 12)))
    config = PMWConfig(num_iterations=iterations, max_iterations=12)
    epsilon = draw(st.sampled_from([0.5, 1.0, 4.0]))
    return instance, workload, epsilon, draw(st.integers(0, 2**16)), config


def _release(pmw, method, instance, workload, epsilon, seed, config):
    """Selections of every PMW run of one release, and its histogram."""
    selections = []

    def recorded(*args, **kwargs):
        result = pmw(*args, **kwargs)
        selections.append(result.selected_queries)
        return result

    with pytest.MonkeyPatch.context() as patch:
        for module in (release, two_table, multi_table):
            patch.setattr(module, "private_multiplicative_weights", recorded)
        result = release_synthetic_data(
            instance, workload, epsilon, 1e-5, method=method, seed=seed, pmw_config=config
        )
    return selections, result.synthetic.histogram


@pytest.mark.parametrize("method", METHODS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_every_release_matches_the_textbook_pmw(method, data):
    inputs = data.draw(_releases(method))
    expected_selections, expected = _release(reference_pmw, method, *inputs)
    assert expected_selections  # every method runs PMW at least once
    bound = 1e-12 * np.max(np.abs(expected), initial=0.0)
    for carried in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if carried:
                patch.setattr(evaluation, "_MATRIX_CELL_BUDGET", 0)
            selections, histogram = _release(private_multiplicative_weights, method, *inputs)
        assert selections == expected_selections, carried
        assert np.max(np.abs(histogram - expected), initial=0.0) <= bound, carried
