"""Property-based tests for the relational substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.hypergraph import path3_query, two_table_query
from repro.relational.instance import Instance
from repro.relational.join import grouped_join_size, join_size
from repro.relational.neighbors import random_neighbor
from tests.relational.test_oracles import (
    instance_distance,
    is_neighboring,
    join_result,
    join_size_brute_force,
    semijoin_reduce,
)


def two_table_instances(max_size=3, max_tuples=6):
    """Strategy producing small two-table instances."""
    sizes = st.integers(2, max_size)
    return st.builds(
        _build_two_table,
        sizes,
        sizes,
        sizes,
        st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=max_tuples),
        st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=max_tuples),
    )


def _build_two_table(size_a, size_b, size_c, raw_r1, raw_r2):
    query = two_table_query(size_a, size_b, size_c)
    r1 = [(a % size_a, b % size_b) for a, b in raw_r1]
    r2 = [(b % size_b, c % size_c) for b, c in raw_r2]
    return Instance.from_tuple_lists(query, {"R1": r1, "R2": r2})


def path3_instances(max_size=3, max_tuples=5):
    sizes = st.integers(2, max_size)
    pair_lists = st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=max_tuples
    )
    return st.builds(_build_path3, sizes, pair_lists, pair_lists, pair_lists)


def _build_path3(size, raw_r1, raw_r2, raw_r3):
    query = path3_query(size, size, size, size)
    def clamp(pairs):
        return [(x % size, y % size) for x, y in pairs]
    return Instance.from_tuple_lists(
        query, {"R1": clamp(raw_r1), "R2": clamp(raw_r2), "R3": clamp(raw_r3)}
    )


class TestJoinProperties:
    @given(two_table_instances())
    @settings(max_examples=60, deadline=None)
    def test_einsum_matches_brute_force(self, instance):
        assert join_size(instance) == join_size_brute_force(instance)

    @given(two_table_instances())
    @settings(max_examples=60, deadline=None)
    def test_join_result_sums_to_join_size(self, instance):
        assert int(join_result(instance).sum()) == join_size(instance)

    @given(path3_instances())
    @settings(max_examples=40, deadline=None)
    def test_three_table_einsum_matches_brute_force(self, instance):
        assert join_size(instance) == join_size_brute_force(instance)

    @given(two_table_instances())
    @settings(max_examples=40, deadline=None)
    def test_grouped_join_size_marginalises(self, instance):
        grouped = np.asarray(grouped_join_size(instance, [0, 1], ["B"]))
        assert int(grouped.sum()) == join_size(instance)

    @given(two_table_instances())
    @settings(max_examples=40, deadline=None)
    def test_semijoin_reduce_is_idempotent_and_join_preserving(self, instance):
        reduced = semijoin_reduce(instance)
        assert join_size(reduced) == join_size(instance)
        assert semijoin_reduce(reduced) == reduced

    @given(two_table_instances())
    @settings(max_examples=40, deadline=None)
    def test_join_monotone_under_tuple_addition(self, instance):
        bigger = instance.with_delta("R1", (0, 0), +1)
        assert join_size(bigger) >= join_size(instance)


class TestNeighborProperties:
    @given(two_table_instances(), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_neighbor_has_distance_one(self, instance, seed):
        rng = np.random.default_rng(seed)
        neighbor = random_neighbor(instance, rng)
        assert is_neighboring(instance, neighbor)
        assert instance_distance(instance, neighbor) == 1

    @given(two_table_instances())
    @settings(max_examples=40, deadline=None)
    def test_join_size_changes_by_at_most_local_sensitivity(self, instance):
        from repro.sensitivity.local import local_sensitivity

        ls = local_sensitivity(instance)
        base = join_size(instance)
        rng = np.random.default_rng(0)
        for _ in range(5):
            neighbor = random_neighbor(instance, rng)
            assert abs(join_size(neighbor) - base) <= ls
