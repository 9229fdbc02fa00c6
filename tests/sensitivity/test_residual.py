"""Unit tests for residual sensitivity (Definition 3.6)."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.multi_table import default_beta, multi_table_release
from repro.core.pmw import PMWConfig
from repro.mechanisms.spec import PrivacySpec
from repro.queries.workload import Workload
from repro.relational.hypergraph import chain_query, path3_query, two_table_query
from repro.relational.instance import Instance
from repro.sensitivity import residual
from repro.sensitivity.boundary import all_boundary_queries
from repro.sensitivity.local import local_sensitivity
from repro.sensitivity.residual import (
    certified_cutoff,
    maximize_residual,
    maximize_residual_objective,
    residual_sensitivity,
    residual_sensitivity_profile,
)


def brute_force_residual(instance, beta: float, k_max: int) -> float:
    """Direct evaluation of Definition 3.6 by explicit composition enumeration."""
    from itertools import combinations

    query = instance.query
    m = query.num_relations
    boundary = all_boundary_queries(instance)

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    best = 0.0
    for k in range(k_max + 1):
        ls_hat = 0
        for i in range(m):
            others = [j for j in range(m) if j != i]
            for split in compositions(k, len(others)):
                s = dict(zip(others, split))
                value = 0
                for size in range(len(others) + 1):
                    for chosen in combinations(others, size):
                        remaining = frozenset(set(others) - set(chosen))
                        term = boundary[remaining]
                        for j in chosen:
                            term *= s[j]
                        value += term
                ls_hat = max(ls_hat, value)
        best = max(best, math.exp(-beta * k) * ls_hat)
    return best


class TestTwoTable:
    def test_k0_term_is_local_sensitivity(self, two_table_instance):
        profile = residual_sensitivity_profile(two_table_instance, beta=0.5)
        assert profile.ls_hat_by_k[0] == local_sensitivity(two_table_instance)

    def test_at_least_local_sensitivity(self, two_table_instance):
        for beta in (0.05, 0.2, 1.0):
            assert residual_sensitivity(two_table_instance, beta) >= local_sensitivity(
                two_table_instance
            ) - 1e-9

    def test_matches_brute_force(self, two_table_instance):
        for beta in (0.3, 0.7):
            expected = brute_force_residual(two_table_instance, beta, k_max=30)
            assert residual_sensitivity(two_table_instance, beta) == pytest.approx(expected)

    def test_closed_form_two_table(self, two_table_instance):
        """For two tables, RS^β = max_k e^{-βk}·(max(T1, T2) + k)... reduces to
        max over k of e^{-βk}(LS + k) since T_{other} = per-relation degree."""
        beta = 0.4
        boundary = all_boundary_queries(two_table_instance)
        t1 = boundary[frozenset({0})]
        t2 = boundary[frozenset({1})]
        expected = max(
            math.exp(-beta * k) * max(t1 + k, t2 + k) for k in range(0, 50)
        )
        assert residual_sensitivity(two_table_instance, beta) == pytest.approx(expected)

    def test_monotone_decreasing_in_beta(self, two_table_instance):
        values = [
            residual_sensitivity(two_table_instance, beta) for beta in (0.05, 0.2, 0.8)
        ]
        assert values[0] >= values[1] >= values[2]

    def test_empty_instance(self):
        query = two_table_query(2, 2, 2)
        value = residual_sensitivity(Instance.empty(query), 0.5)
        # LŜ^k = k for the empty two-table instance (adding k tuples to one side).
        expected = max(math.exp(-0.5 * k) * k for k in range(20))
        assert value == pytest.approx(expected)

    def test_invalid_beta(self, two_table_instance):
        with pytest.raises(ValueError):
            residual_sensitivity(two_table_instance, 0.0)


class TestMultiTable:
    def test_matches_brute_force_three_tables(self, path3_instance):
        for beta in (0.4, 0.8):
            expected = brute_force_residual(path3_instance, beta, k_max=25)
            assert residual_sensitivity(path3_instance, beta) == pytest.approx(expected)

    def test_smoothness_on_neighbors(self, path3_instance, rng):
        """RS^β is a β-smooth upper bound: neighbouring values differ by ≤ e^β."""
        from repro.relational.neighbors import random_neighbor

        beta = 0.3
        base = residual_sensitivity(path3_instance, beta)
        for _ in range(8):
            neighbor = random_neighbor(path3_instance, rng)
            other = residual_sensitivity(neighbor, beta)
            assert other <= base * math.exp(beta) + 1e-9
            assert other >= base * math.exp(-beta) - 1e-9

    def test_profile_fields(self, path3_instance):
        profile = residual_sensitivity_profile(path3_instance, 0.5)
        assert profile.value == pytest.approx(
            max(
                math.exp(-0.5 * k) * v for k, v in profile.ls_hat_by_k.items()
            )
        )
        assert profile.maximizing_k in profile.ls_hat_by_k
        assert max(profile.ls_hat_by_k) == certified_cutoff(3, 0.5)


class TestCutoffAndMaximizer:
    def test_certified_cutoff_monotone(self):
        assert certified_cutoff(3, 0.1) > certified_cutoff(3, 1.0)
        assert certified_cutoff(5, 0.5) > certified_cutoff(2, 0.5)
        assert certified_cutoff(1, 0.5) == 1

    def test_maximizer_ignores_excluded_coordinate(self):
        # Coefficients for a 2-relation query: mass on the excluded index is wasted.
        coefficients = {
            frozenset(): 1.0,
            frozenset({0}): 2.0,
            frozenset({1}): 3.0,
            frozenset({0, 1}): 4.0,
        }
        value, per_k = maximize_residual_objective(
            coefficients, (0, 1), excluded_index=0, beta=1.0, total_cap=5
        )
        # For i = 0, the objective is e^{-β·s}(T_{1} + s) with T_{1}=3.
        expected = max(math.exp(-k) * (3 + k) for k in range(6))
        assert value == pytest.approx(expected)
        assert per_k[0] == pytest.approx(3.0)


def random_chain(seed: int, num_relations: int) -> Instance:
    """A chain over domains of size 1–3 mixing empty, one-tuple and random relations."""
    rng = np.random.default_rng(seed)
    query = chain_query([int(rng.integers(1, 4)) for _ in range(num_relations + 1)])
    frequencies = {}
    for schema in query.relations:
        kind = int(rng.integers(3))
        if kind == 0:
            continue
        if kind == 1:
            single = np.zeros(schema.shape, dtype=np.int64)
            single.flat[rng.integers(single.size)] = 1
            frequencies[schema.name] = single
        else:
            frequencies[schema.name] = rng.integers(0, 30, size=schema.shape)
    return Instance.from_frequencies(query, frequencies)


def one_tuple_chain(num_relations: int) -> Instance:
    """The flat chain: one tuple per relation, so every ``T_E`` is 1."""
    query = chain_query([1] * (num_relations + 1))
    return Instance.from_frequencies(
        query, {schema.name: np.ones(schema.shape, dtype=np.int64) for schema in query.relations}
    )


def dense_chain(num_relations: int, seed: int = 0) -> Instance:
    """A chain over binary domains, every tuple with multiplicity ``100 + U{0..20}``."""
    rng = np.random.default_rng(seed)
    query = chain_query([2] * (num_relations + 1))
    return Instance.from_frequencies(
        query,
        {schema.name: 100 + rng.integers(0, 21, size=schema.shape) for schema in query.relations},
    )


#: Search settings under test: the defaults, and blocks so small that every
#: simplex runs the branch-and-bound and its depth-first fallback.
SEARCH_SETTINGS = {
    "default": {},
    "tiny_blocks": {"_BLOCK_POINTS": 1, "_FRONTIER_BLOCK": 32, "_FRONTIER_CAP": 64},
}


class TestSearchMatchesEnumeration:
    """``residual_sensitivity`` searches; the profile enumerates.  They agree bitwise."""

    @pytest.mark.parametrize("search", sorted(SEARCH_SETTINGS))
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_relations=st.integers(1, 4),
        beta=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
        cap=st.none() | st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_chains(self, search, seed, num_relations, beta, cap):
        """At the certified cutoff (``cap`` None) through RS^β itself, else at ``cap``."""
        instance = random_chain(seed, num_relations)
        coefficients = {key: float(value) for key, value in all_boundary_queries(instance).items()}
        indices = tuple(range(num_relations))
        with pytest.MonkeyPatch.context() as patch:
            for name, value in SEARCH_SETTINGS[search].items():
                patch.setattr(residual, name, value)
            if cap is None:
                found = residual_sensitivity(instance, beta)
            else:
                found = maximize_residual(coefficients, num_relations, beta, cap)
        if cap is None:
            expected = residual_sensitivity_profile(instance, beta).value
        else:
            expected = max(
                maximize_residual_objective(coefficients, indices, i, beta, cap)[0]
                for i in indices
            )
        assert type(found) is float
        assert found == expected

    def test_flat_four_relation_chain(self):
        """Every ``T`` is 1, so the maximum lies deep inside the simplex."""
        instance = one_tuple_chain(4)
        beta = default_beta(0.2, 1e-6)
        expected = residual_sensitivity_profile(instance, beta).value
        assert residual_sensitivity(instance, beta) == expected


class TestSearchAtSmallEpsilon:
    """Five relations at (0.1, 1e-6): K = 557, a simplex of four billion points."""

    @pytest.mark.parametrize(
        "instance", [dense_chain(5), one_tuple_chain(5)], ids=["dense", "one_tuple"]
    )
    def test_five_relations_finish_and_dominate_local(self, instance):
        start = time.perf_counter()
        value = residual_sensitivity(instance, default_beta(0.1, 1e-6))
        assert time.perf_counter() - start < 5.0
        assert value >= local_sensitivity(instance)

    def test_algorithm3_releases_five_relations(self):
        instance = dense_chain(5)
        result = multi_table_release(
            instance,
            Workload.counting(instance.query),
            0.1,
            1e-6,
            rng=np.random.default_rng(0),
            pmw_config=PMWConfig(num_iterations=2),
        )
        assert result.privacy == PrivacySpec(0.1, 1e-6)

    def test_profile_refuses_the_enumeration_before_allocating(self):
        start = time.perf_counter()
        with pytest.raises(MemoryError):
            residual_sensitivity_profile(dense_chain(5), default_beta(0.1, 1e-6))
        assert time.perf_counter() - start < 1.0


class TestSearchSpan:
    def test_span_records_the_search(self, path3_instance):
        telemetry.configure()
        try:
            residual_sensitivity(path3_instance, 0.01)
            spans = [s for s in telemetry.span_dicts() if s["name"] == "sensitivity.residual"]
        finally:
            telemetry.disable()
        assert len(spans) == 1
        attrs = spans[0]["attrs"]
        assert attrs["m"] == 3
        assert attrs["K"] == certified_cutoff(3, 0.01)
        assert attrs["boxes"] > 0
        assert 0 < attrs["points"] < math.comb(attrs["K"] + 2, 2)
