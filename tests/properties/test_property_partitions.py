"""Property-based tests for the uniformization partitions (Lemma 4.10 invariants)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchical import partition_hierarchical
from repro.core.partition_two_table import partition_two_table
from repro.relational.hypergraph import star_query
from repro.relational.instance import Instance
from repro.relational.join import join_size
from tests.properties.test_property_relational import two_table_instances
from tests.relational.test_oracles import join_result


def star_instances(max_tuples=5):
    pair_lists = st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=max_tuples
    )
    return st.builds(_build_star, pair_lists, pair_lists, pair_lists)


def _build_star(raw_r1, raw_r2, raw_r3):
    query = star_query(3, [3, 3, 3])
    def clamp(pairs):
        return [(h % 3, x % 3) for h, x in pairs]
    return Instance.from_tuple_lists(
        query, {"R1": clamp(raw_r1), "R2": clamp(raw_r2), "R3": clamp(raw_r3)}
    )


class TestTwoTablePartitionProperties:
    @given(two_table_instances(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_tuples_and_join_results_partitioned(self, instance, seed):
        partition = partition_two_table(instance, 1.0, 1e-3, rng=np.random.default_rng(seed))
        assert sum(bucket.sub_instance.total_size() for bucket in partition.buckets) == (
            instance.total_size()
        )
        combined = np.zeros(instance.query.shape, dtype=np.int64)
        for bucket in partition.buckets:
            combined += join_result(bucket.sub_instance)
        assert np.array_equal(combined, join_result(instance))

    @given(two_table_instances(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bucket_indices_positive_and_masks_disjoint(self, instance, seed):
        partition = partition_two_table(instance, 1.0, 1e-3, rng=np.random.default_rng(seed))
        coverage = None
        for bucket in partition.buckets:
            assert bucket.index >= 1
            mask = bucket.join_value_mask.astype(int)
            coverage = mask if coverage is None else coverage + mask
        assert np.all(coverage == 1)


class TestHierarchicalPartitionProperties:
    @given(star_instances(), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_join_results_partitioned(self, instance, seed):
        partition = partition_hierarchical(instance, 1.0, 1e-2, rng=np.random.default_rng(seed))
        combined = np.zeros(instance.query.shape, dtype=np.int64)
        for bucket in partition.buckets:
            combined += join_result(bucket.sub_instance)
        assert np.array_equal(combined, join_result(instance))
        assert sum(join_size(bucket.sub_instance) for bucket in partition.buckets) == join_size(
            instance
        )

    @given(star_instances(), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_multiplicity_within_bucket_count(self, instance, seed):
        partition = partition_hierarchical(instance, 1.0, 1e-2, rng=np.random.default_rng(seed))
        multiplicity = partition.tuple_multiplicity(instance)
        assert 1 <= multiplicity <= max(1, partition.num_buckets)

    @given(star_instances(), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_configurations_distinct(self, instance, seed):
        partition = partition_hierarchical(instance, 1.0, 1e-2, rng=np.random.default_rng(seed))
        keys = [tuple(sorted(bucket.configuration.items())) for bucket in partition.buckets]
        assert len(keys) == len(set(keys))
