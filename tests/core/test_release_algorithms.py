"""Unit tests for Algorithms 1, 3, and the unified release entry point."""

import dataclasses
import os
import resource
import tracemalloc

import numpy as np
import pytest

from repro.baselines.flawed import flawed_exact_count_release, flawed_padded_release
from repro.baselines.independent_laplace import independent_laplace_answers
from repro.core.hierarchical import decompose_by_attribute, partition_hierarchical
from repro.core.multi_table import default_beta, multi_table_release, noisy_residual_sensitivity
from repro.core.partition_two_table import partition_two_table
from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.core import pmw as pmw_module
from repro.core import release
from repro.core.release import ReleaseMemoryError, release_synthetic_data
from repro.core.two_table import noisy_local_sensitivity, two_table_release
from repro.core.uniformize import uniformize_release
from repro.datagen.tpch import generate_tpch
from repro.mechanisms.spec import PrivacySpec
from repro.mechanisms.truncated_laplace import default_lambda
from repro.queries import evaluation
from repro.queries.linear import ProductQuery, TableQuery
from repro.queries.workload import Workload
from repro.relational.hypergraph import (
    chain_query,
    figure4_query,
    single_table_query,
    star_query,
    two_table_query,
)
from repro.relational.instance import Instance
from repro.relational.join import join_size
from repro.sensitivity.local import local_sensitivity
from repro.sensitivity.residual import residual_sensitivity

FAST = PMWConfig(max_iterations=5)

#: The release peak test's joins (see its docstring).
PEAK_JOINS = {
    "two_table": two_table_query(64, 16, 32),
    "chain": chain_query([8, 8, 4, 8, 8]),
    "star": star_query(16, [8, 16, 8]),
    "figure4": figure4_query(4),
    "tpch_chain": generate_tpch(1.0, seed=0).nation_customer_orders.query,
    "single_table": single_table_query({"X": 256, "Y": 128}),
}


class TestTwoTableRelease:
    def test_basic_release(self, two_table_instance):
        workload = Workload.random_sign(two_table_instance.query, 8, seed=0)
        result = two_table_release(
            two_table_instance, workload, 1.0, 1e-5, rng=np.random.default_rng(1), pmw_config=FAST
        )
        assert result.algorithm == "two_table"
        assert result.privacy == PrivacySpec(1.0, 1e-5)
        assert result.synthetic.histogram.shape == two_table_instance.query.shape
        assert np.all(result.synthetic.histogram >= 0)

    def test_delta_tilde_upper_bounds_local_sensitivity(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        for seed in range(5):
            result = two_table_release(
                two_table_instance, workload, 1.0, 1e-5, rng=np.random.default_rng(seed),
                pmw_config=FAST
            )
            assert result.diagnostics["delta_tilde"] >= local_sensitivity(
                two_table_instance
            )

    def test_delta_tilde_is_the_shared_additive_step(self, two_table_instance):
        """Algorithm 1 and both baselines that need Δ̃ draw it through one function."""
        instance, workload = two_table_instance, Workload.counting(two_table_instance.query)
        delta_tilde = noisy_local_sensitivity(instance, 0.5, 5e-6, rng=np.random.default_rng(4))
        result = two_table_release(
            instance, workload, 1.0, 1e-5, rng=np.random.default_rng(4), pmw_config=FAST
        )
        assert result.diagnostics["delta_tilde"] == delta_tilde
        baseline = independent_laplace_answers(
            instance, workload, 1.0, 1e-5, rng=np.random.default_rng(4)
        )
        assert baseline.sensitivity_bound == delta_tilde
        # The padded variant draws its Δ̃ at (ε/4, δ/4) after its base PMW run.
        rng = np.random.default_rng(4)
        flawed_exact_count_release(instance, workload, 0.5, 5e-6, rng=rng, pmw_config=FAST)
        padded_tilde = noisy_local_sensitivity(instance, 0.25, 2.5e-6, rng=rng)
        padded = flawed_padded_release(
            instance, workload, 1.0, 1e-5, rng=np.random.default_rng(4), pmw_config=FAST
        )
        assert padded.diagnostics["delta_tilde"] == padded_tilde

    def test_noisy_total_upper_bounds_join_size(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        result = two_table_release(
            two_table_instance, workload, 1.0, 1e-5, rng=np.random.default_rng(2), pmw_config=FAST
        )
        assert result.diagnostics["noisy_total"] >= join_size(two_table_instance)

    def test_rejects_non_two_table(self, path3_instance, rng):
        workload = Workload.counting(path3_instance.query)
        with pytest.raises(ValueError):
            two_table_release(path3_instance, workload, 1.0, 1e-5, rng=rng, pmw_config=FAST)

    def test_reproducible(self, two_table_instance):
        workload = Workload.random_sign(two_table_instance.query, 6, seed=0)
        first = two_table_release(
            two_table_instance, workload, 1.0, 1e-5, rng=np.random.default_rng(9), pmw_config=FAST
        )
        second = two_table_release(
            two_table_instance, workload, 1.0, 1e-5, rng=np.random.default_rng(9), pmw_config=FAST
        )
        assert np.array_equal(first.synthetic.histogram, second.synthetic.histogram)

    def test_error_report_helper(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        result = two_table_release(
            two_table_instance, workload, 1.0, 1e-5, rng=np.random.default_rng(3), pmw_config=FAST
        )
        report = result.error_report(two_table_instance, workload)
        assert report.num_queries == 1
        assert result.max_error(two_table_instance, workload) == report.max_abs_error


class TestMultiTableRelease:
    def test_basic_release(self, path3_instance):
        workload = Workload.random_sign(path3_instance.query, 6, seed=0)
        result = multi_table_release(
            path3_instance, workload, 1.0, 1e-3, rng=np.random.default_rng(1), pmw_config=FAST
        )
        assert result.algorithm == "multi_table"
        assert result.privacy == PrivacySpec(1.0, 1e-3)
        assert result.synthetic.histogram.shape == path3_instance.query.shape

    def test_delta_tilde_upper_bounds_residual_sensitivity(self, path3_instance):
        workload = Workload.counting(path3_instance.query)
        beta = default_beta(1.0, 1e-3)
        rs_value = residual_sensitivity(path3_instance, beta)
        for seed in range(4):
            result = multi_table_release(
                path3_instance, workload, 1.0, 1e-3, rng=np.random.default_rng(seed),
                pmw_config=FAST
            )
            assert result.diagnostics["delta_tilde"] >= rs_value - 1e-9

    def test_delta_tilde_is_the_shared_log_space_step(self, path3_instance):
        """Algorithm 3 and the per-query baseline draw Δ̃ through one function."""
        workload = Workload.counting(path3_instance.query)
        beta = default_beta(1.0, 1e-3)
        for seed in range(3):
            delta_tilde = noisy_residual_sensitivity(
                path3_instance, 0.5, 5e-4, beta, rng=np.random.default_rng(seed)
            )
            result = multi_table_release(
                path3_instance, workload, 1.0, 1e-3, rng=np.random.default_rng(seed),
                pmw_config=FAST
            )
            assert result.diagnostics["delta_tilde"] == delta_tilde
            baseline = independent_laplace_answers(
                path3_instance, workload, 1.0, 1e-3, rng=np.random.default_rng(seed)
            )
            assert baseline.sensitivity_bound == delta_tilde

    def test_default_beta_is_inverse_lambda(self):
        import math

        beta = default_beta(0.5, 1e-4)
        assert beta == pytest.approx(0.5 / math.log(1e4))

    @pytest.mark.parametrize("epsilon, delta", [(1.0, 0.0), (1.0, 1.0), (0.0, 1e-3)])
    def test_default_beta_refuses_what_lambda_refuses(self, epsilon, delta):
        # β = 1/λ goes through the one λ: δ = 0 and ε = 0 divided by zero
        # before, and δ = 1 gave λ = 0 and the floor's β = 1e9.
        with pytest.raises(ValueError):
            default_beta(epsilon, delta)

    def test_beta_is_algorithm_3s_line_1(self, path3_instance):
        workload = Workload.counting(path3_instance.query)
        result = multi_table_release(
            path3_instance, workload, 1.0, 1e-3, rng=np.random.default_rng(0), pmw_config=FAST
        )
        assert result.diagnostics["beta"] == default_beta(1.0, 1e-3)

    def test_works_on_two_table_instances_as_well(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        result = multi_table_release(
            two_table_instance, workload, 1.0, 1e-3, rng=np.random.default_rng(0), pmw_config=FAST
        )
        assert result.synthetic.total_mass() > 0

    def test_hierarchical_instance(self, figure4_instance):
        workload = Workload.random_sign(figure4_instance.query, 4, seed=0)
        result = multi_table_release(
            figure4_instance, workload, 1.0, 1e-2, rng=np.random.default_rng(0), pmw_config=FAST
        )
        assert result.synthetic.histogram.shape == figure4_instance.query.shape


class TestWorkloadInstanceCompatibility:
    """Mismatched workload/instance join queries must fail fast and clearly.

    Sharing relation names is not enough: mismatched attribute domains used
    to slip through to a shape error (or silent misevaluation) deep inside
    PMW.
    """

    @staticmethod
    def _mismatched_pair():
        # Same relation and attribute names, different B domain size.
        workload_query = two_table_query(5, 4, 5)
        instance_query = two_table_query(5, 6, 5)
        workload = Workload.counting(workload_query)
        instance = Instance.from_tuple_lists(
            instance_query, {"R1": [(0, 0)], "R2": [(0, 0)]}
        )
        return workload, instance

    def test_two_table_rejects_mismatched_domains(self):
        workload, instance = self._mismatched_pair()
        with pytest.raises(ValueError, match="domain of attribute"):
            two_table_release(
                instance, workload, 1.0, 1e-5, rng=np.random.default_rng(0), pmw_config=FAST
            )

    def test_multi_table_rejects_mismatched_domains(self):
        workload, instance = self._mismatched_pair()
        with pytest.raises(ValueError, match="domain of attribute"):
            multi_table_release(
                instance, workload, 1.0, 1e-3, rng=np.random.default_rng(0), pmw_config=FAST
            )

    def test_uniformize_rejects_mismatched_domains(self):
        from repro.core.uniformize import uniformize_release

        workload, instance = self._mismatched_pair()
        with pytest.raises(ValueError, match="domain of attribute"):
            uniformize_release(
                instance, workload, 1.0, 1e-3, rng=np.random.default_rng(0), pmw_config=FAST
            )

    def test_mismatched_relation_names_still_rejected(self, two_table_instance):
        other_query = two_table_query(5, 4, 5, names=("S1", "S2"))
        workload = Workload.counting(other_query)
        with pytest.raises(ValueError, match="different join queries"):
            two_table_release(
                two_table_instance, workload, 1.0, 1e-5, rng=np.random.default_rng(0),
                pmw_config=FAST
            )

    def test_equal_structure_is_accepted(self, two_table_instance):
        # A workload built over a *distinct but structurally identical* join
        # query object must keep working (the seed relied on this).
        twin_query = two_table_query(5, 4, 5)
        workload = Workload.counting(twin_query)
        result = two_table_release(
            two_table_instance, workload, 1.0, 1e-5, rng=np.random.default_rng(0), pmw_config=FAST
        )
        assert result.algorithm == "two_table"


class TestReleaseDispatch:
    def test_auto_single_table(self):
        query = single_table_query({"X": 4, "Y": 3})
        instance = Instance.from_tuple_lists(query, {"T": [(0, 0), (1, 2), (3, 1)]})
        workload = Workload.random_sign(query, 5, seed=0)
        result = release_synthetic_data(
            instance, workload, 1.0, 1e-5, seed=0, pmw_config=FAST
        )
        assert result.algorithm == "single_table"

    def test_auto_two_table(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        result = release_synthetic_data(
            two_table_instance, workload, 1.0, 1e-5, seed=0, pmw_config=FAST
        )
        assert result.algorithm == "two_table"

    def test_auto_multi_table(self, path3_instance):
        workload = Workload.counting(path3_instance.query)
        result = release_synthetic_data(
            path3_instance, workload, 1.0, 1e-3, seed=0, pmw_config=FAST
        )
        assert result.algorithm == "multi_table"

    def test_explicit_uniformize_two_table(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        result = release_synthetic_data(
            two_table_instance,
            workload,
            1.0,
            1e-3,
            method="uniformize_two_table",
            seed=0,
            pmw_config=FAST,
        )
        assert result.algorithm == "uniformize_two_table"

    def test_explicit_uniformize_hierarchical(self, figure4_instance):
        workload = Workload.counting(figure4_instance.query)
        result = release_synthetic_data(
            figure4_instance,
            workload,
            1.0,
            1e-2,
            method="uniformize_hierarchical",
            seed=0,
            pmw_config=FAST,
        )
        assert result.algorithm == "uniformize_hierarchical"

    def test_unknown_method_rejected(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        with pytest.raises(ValueError):
            release_synthetic_data(
                two_table_instance, workload, 1.0, 1e-5, method="magic"
            )

    def test_single_table_method_requires_one_relation(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        with pytest.raises(ValueError):
            release_synthetic_data(
                two_table_instance, workload, 1.0, 1e-5, method="single_table"
            )

    def test_seed_and_rng_mutually_exclusive(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        with pytest.raises(ValueError):
            release_synthetic_data(
                two_table_instance,
                workload,
                1.0,
                1e-5,
                rng=np.random.default_rng(0),
                seed=1,
            )


class TestNonFiniteBudget:
    """A NaN or infinite ε is refused before anything is drawn.

    Accepted, NaN failed inside PMW ("Probabilities contain NaN", or "cannot
    convert float NaN to integer") and ∞ with "scale must be positive, got
    0.0", each after the generator had drawn.
    """

    ENTRIES = {
        "two_table_release": two_table_release,
        "multi_table_release": multi_table_release,
        "uniformize_release": uniformize_release,
        "pmw": lambda instance, workload, epsilon, delta, *, rng: (
            private_multiplicative_weights(instance, workload, epsilon, delta, 1.0, rng=rng)
        ),
        **{
            f"release_synthetic_data[{method}]": (
                lambda instance, workload, epsilon, delta, *, rng, method=method: (
                    release_synthetic_data(
                        instance, workload, epsilon, delta, method=method, rng=rng
                    )
                )
            )
            for method in release._METHODS
        },
    }

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_is_refused_before_the_first_draw(self, entry, epsilon, two_table_instance):
        instance = two_table_instance
        if entry.endswith("[single_table]"):
            query = single_table_query({"X": 4, "Y": 3})
            instance = Instance.from_tuple_lists(query, {"T": [(0, 0), (1, 2), (3, 1)]})
        workload = Workload.counting(instance.query)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="epsilon"):
            self.ENTRIES[entry](instance, workload, epsilon, 1e-5, rng=rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("bound", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_pmw_refuses_a_non_finite_sensitivity_bound(self, bound, two_table_instance, rng):
        workload = Workload.counting(two_table_instance.query)
        with pytest.raises(ValueError, match="sensitivity bound"):
            private_multiplicative_weights(two_table_instance, workload, 1.0, 1e-5, bound, rng=rng)


class TestStepsTakeAGenerator:
    """Every release step draws only from the Generator its caller hands it."""

    STEPS = {
        "private_multiplicative_weights": lambda instance, workload, **rng: (
            private_multiplicative_weights(instance, workload, 1.0, 1e-5, 1.0, config=FAST, **rng)
        ),
        "two_table_release": lambda instance, workload, **rng: two_table_release(
            instance, workload, 1.0, 1e-5, pmw_config=FAST, **rng
        ),
        "multi_table_release": lambda instance, workload, **rng: multi_table_release(
            instance, workload, 1.0, 1e-5, pmw_config=FAST, **rng
        ),
        "uniformize_release": lambda instance, workload, **rng: uniformize_release(
            instance, workload, 1.0, 1e-5, pmw_config=FAST, **rng
        ),
        "partition_two_table": lambda instance, workload, **rng: partition_two_table(
            instance, 1.0, 1e-5, **rng
        ),
        "partition_hierarchical": lambda instance, workload, **rng: partition_hierarchical(
            instance, 1.0, 1e-5, **rng
        ),
        "decompose_by_attribute": lambda instance, workload, **rng: decompose_by_attribute(
            instance, "A", 1.0, 1e-5, lam=default_lambda(1.0, 1e-5), **rng
        ),
        "flawed_exact_count_release": lambda instance, workload, **rng: (
            flawed_exact_count_release(instance, workload, 1.0, 1e-5, pmw_config=FAST, **rng)
        ),
        "flawed_padded_release": lambda instance, workload, **rng: flawed_padded_release(
            instance, workload, 1.0, 1e-5, pmw_config=FAST, **rng
        ),
        "independent_laplace_answers": lambda instance, workload, **rng: (
            independent_laplace_answers(instance, workload, 1.0, 1e-5, **rng)
        ),
    }

    @pytest.mark.parametrize("step", sorted(STEPS))
    def test_anything_but_a_generator_is_refused(self, step, two_table_instance, monkeypatch):
        """A missing ``rng=``, ``None``, a seed or a ``RandomState`` raises ``TypeError``.

        Each is refused before numpy makes a generator, so before any draw.
        Without ``rng=``, or with ``None``, a step used to draw from a
        generator seeded by the operating system.
        """
        run = self.STEPS[step]
        workload = Workload.counting(two_table_instance.query)
        generator = np.random.default_rng(0)
        made = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(a) or default_rng(*a))
        with pytest.raises(TypeError, match="rng"):
            run(two_table_instance, workload)
        for rng in (None, 0, np.random.RandomState(0)):
            with pytest.raises(TypeError, match="rng"):
                run(two_table_instance, workload, rng=rng)
        assert made == []
        assert run(two_table_instance, workload, rng=generator) is not None


class TestReleaseMemoryCheck:
    """A release whose histograms cannot fit is refused before it allocates them."""

    def test_every_method_refuses_a_domain_past_the_host(self):
        query = chain_query([64] * 7)  # |D| = 2^42 over six 64 × 64 relations
        rng = np.random.default_rng(0)
        instance = Instance.from_frequencies(
            query,
            {schema.name: rng.integers(0, 3, size=schema.shape) for schema in query.relations},
        )
        workload = Workload.random_sign(query, 4, seed=0)
        for method in release._METHODS:
            # 8 bytes times |D| times 7 arrays, and an 8th for Algorithm 4's union.
            needed = "281,474,976,710,656" if "uniformize" in method else "246,290,604,621,824"
            tracemalloc.start()
            try:
                with pytest.raises(
                    ReleaseMemoryError, match=rf"\|D\| = 4,398,046,511,104 .* {needed} bytes"
                ):
                    release_synthetic_data(instance, workload, 1.0, 1e-5, method=method, seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, method

    @pytest.mark.parametrize("method", release._METHODS)
    def test_a_limit_one_byte_under_the_charge_refuses_before_the_first_round(
        self, method, two_table_instance, monkeypatch
    ):
        instance = two_table_instance
        if method == "single_table":
            instance = Instance.from_tuple_lists(
                single_table_query({"X": 3, "Y": 4}), {"T": [(0, 1), (2, 3), (2, 0)]}
            )
        query = instance.query
        workload = Workload.random_sign(query, 4, seed=0)
        charge = release._release_bytes(query.joint_domain_size, method)
        rounds = []
        original = pmw_module.exponential_mechanism

        def counted(*args, **kwargs):
            rounds.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pmw_module, "exponential_mechanism", counted)
        monkeypatch.setattr(release, "_memory_limit", lambda: charge - 1)
        with pytest.raises(ReleaseMemoryError, match=f"{charge:,} bytes"):
            release_synthetic_data(instance, workload, 1.0, 1e-5, method=method, seed=0)
        assert rounds == []
        monkeypatch.setattr(release, "_memory_limit", lambda: charge)
        release_synthetic_data(
            instance, workload, 1.0, 1e-5, method=method, seed=0, pmw_config=FAST
        )
        assert rounds

    @pytest.mark.parametrize("carried", [False, True], ids=["evaluated", "carried"])
    @pytest.mark.parametrize("join", PEAK_JOINS)
    def test_each_release_peaks_within_its_charge(self, join, carried, monkeypatch):
        """The traced peak of every method's release stays within what the check charges.

        The joins have the structures of the evaluator tests' ``JOINS`` (the
        17-attribute chain aside: Algorithm 3's residual sensitivity over 16
        relations takes minutes), plus a one-relation join for the
        single-table method, at |D| >= 16,384: there ``|D|``-length arrays
        outweigh what does not grow with |D|, such as numpy's 8,192-element
        loop buffers and Algorithm 3's residual-sensitivity tables.  The
        workload mixes ±1 queries, a marginal, predicates on gathered boxes
        and an all-zero query.
        """
        if carried:
            monkeypatch.setattr(evaluation, "_MATRIX_CELL_BUDGET", 0)
        query = PEAK_JOINS[join]
        rng = np.random.default_rng(4)
        frequencies = {
            schema.name: rng.integers(0, 4, size=schema.shape) for schema in query.relations
        }
        instance = Instance.from_frequencies(query, frequencies)
        last = query.relations[-1]
        zero = TableQuery(last.name, np.zeros(last.shape))
        workload = (
            Workload.random_sign(query, 6, seed=1)
            .extended(
                Workload.attribute_marginals(
                    query, query.attribute_names[-1], include_counting=False
                ).queries
            )
            .extended(Workload.random_predicates(query, 4, seed=2).queries)
            .extended([ProductQuery(query, [zero])])
        )
        config = PMWConfig(num_iterations=8)
        ran = []
        for method in release._METHODS:
            # An earlier release builds the stacks and box factors, and the
            # first one of a method imports what it imports lazily.
            try:
                release_synthetic_data(
                    instance, workload, 1.0, 1e-5, method=method, seed=0, pmw_config=config
                )
            except ValueError:  # the method does not apply to this join
                continue
            tracemalloc.start()
            try:
                result = release_synthetic_data(
                    instance, workload, 1.0, 1e-5, method=method, seed=1, pmw_config=config
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del result
            charge = release._release_bytes(query.joint_domain_size, method)
            assert peak <= charge, (method, peak / (8 * query.joint_domain_size))
            ran.append(method)
        assert "multi_table" in ran and "auto" in ran, ran

    def test_an_address_space_limit_refuses_a_release_that_fits_in_memory(
        self, two_table_instance, monkeypatch
    ):
        workload = Workload.counting(two_table_instance.query)
        monkeypatch.setattr(resource, "getrlimit", lambda which: (1024, resource.RLIM_INFINITY))
        with pytest.raises(ReleaseMemoryError, match="this host allows 1,024"):
            release_synthetic_data(two_table_instance, workload, 1.0, 1e-5, seed=0)

    def test_the_limit_is_the_smaller_readable_one(self, monkeypatch):
        pages = {"SC_PHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        unset = (resource.RLIM_INFINITY, resource.RLIM_INFINITY)
        monkeypatch.setattr(resource, "getrlimit", lambda which: unset)
        assert release._memory_limit() == 4_096_000
        monkeypatch.setattr(resource, "getrlimit", lambda which: (10_000, unset[1]))
        assert release._memory_limit() == 10_000

        def unreadable(name):
            raise ValueError(name)

        monkeypatch.setattr(os, "sysconf", unreadable)
        assert release._memory_limit() == 10_000
        monkeypatch.setattr(resource, "getrlimit", lambda which: unset)
        assert release._memory_limit() is None  # the check is skipped


#: Every algorithm's ``diagnostics`` keys in order, and each bucket's keys.
RECORD_KEYS = {
    "single_table": (["noisy_total", "iterations", "epsilon_per_round"], None),
    "two_table": (["delta_tilde", "noisy_total", "iterations", "epsilon_per_round"], None),
    "multi_table": (
        ["beta", "delta_tilde", "noisy_total", "iterations", "epsilon_per_round"],
        None,
    ),
    "uniformize_two_table": (["lam", "buckets"], ["bucket", "noisy_total", "delta_tilde"]),
    "uniformize_hierarchical": (
        ["lam", "buckets", "nominal_privacy"],
        ["configuration", "noisy_total", "delta_tilde"],
    ),
    "flawed_exact_count": (["warning", "noisy_total", "iterations", "epsilon_per_round"], None),
    "flawed_padded": (["warning", "eta", "delta_tilde", "base_total"], None),
}
FLAWED = {"flawed_exact_count": flawed_exact_count_release, "flawed_padded": flawed_padded_release}
#: Exact statistics of the private instance, which no release may hold.
EXACT_STATISTICS = {
    "local_sensitivity",
    "residual_sensitivity",
    "sub_instance_size",
    "tuple_multiplicity",
}


class TestReleaseRecord:
    """A release records what its mechanisms released and its public parameters, once."""

    @pytest.mark.parametrize("algorithm", RECORD_KEYS)
    def test_diagnostics_keys_per_algorithm(self, algorithm, request):
        if algorithm == "single_table":
            instance = Instance.from_tuple_lists(single_table_query({"X": 3}), {"T": [(0,), (2,)]})
        else:
            fixture = {
                "multi_table": "path3_instance",
                "uniformize_hierarchical": "figure4_instance",
            }.get(algorithm, "two_table_instance")
            instance = request.getfixturevalue(fixture)
        workload = Workload.counting(instance.query)
        if algorithm in FLAWED:
            result = FLAWED[algorithm](
                instance, workload, 1.0, 1e-2, rng=np.random.default_rng(0), pmw_config=FAST
            )
        else:
            result = release_synthetic_data(
                instance, workload, 1.0, 1e-2, method=algorithm, seed=0, pmw_config=FAST
            )
        keys, bucket_keys = RECORD_KEYS[algorithm]
        assert result.algorithm == algorithm
        assert list(result.diagnostics) == keys
        assert not EXACT_STATISTICS & {*keys, *(bucket_keys or ())}
        if bucket_keys is not None:
            assert result.diagnostics["buckets"]
            for entry in result.diagnostics["buckets"]:
                assert list(entry) == bucket_keys
        # The guarantee and the algorithm are the release's, not the dataset's.
        assert [field.name for field in dataclasses.fields(result.synthetic)] == [
            "join_query",
            "histogram",
        ]

    def test_flawed_config_keeps_caller_settings(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        config = PMWConfig(num_iterations=3)
        result = flawed_exact_count_release(
            two_table_instance, workload, 1.0, 1e-3, rng=np.random.default_rng(0),
            pmw_config=config
        )
        assert result.diagnostics["iterations"] == 3
        assert result.diagnostics["noisy_total"] == join_size(two_table_instance)
