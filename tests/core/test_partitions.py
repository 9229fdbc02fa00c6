"""Unit tests for the uniformization partitions (Algorithms 5, 6, 7)."""

import numpy as np
import pytest

from repro.core.hierarchical import (
    decompose_by_attribute,
    partition_hierarchical,
    strict_ancestor_attributes,
)
from repro.core.partition_two_table import default_lambda, partition_two_table
from repro.datagen.synthetic import figure3_instance
from repro.relational.hypergraph import two_table_query
from repro.relational.instance import Instance
from repro.relational.join import join_result, join_size


class TestPartitionTwoTable:
    def test_default_lambda(self):
        import math

        assert default_lambda(0.5, 1e-4) == pytest.approx(math.log(1e4) / 0.5)
        with pytest.raises(ValueError):
            default_lambda(0.0, 1e-4)
        with pytest.raises(ValueError):
            default_lambda(1.0, 0.0)

    def test_tuples_partitioned(self, two_table_instance):
        partition = partition_two_table(two_table_instance, 0.5, 1e-4, seed=0)
        total = sum(bucket.sub_instance.total_size() for bucket in partition.buckets)
        assert total == two_table_instance.total_size()

    def test_join_results_partitioned(self, two_table_instance):
        partition = partition_two_table(two_table_instance, 0.5, 1e-4, seed=0)
        combined = np.zeros(two_table_instance.query.shape, dtype=np.int64)
        for bucket in partition.buckets:
            combined += join_result(bucket.sub_instance)
        assert np.array_equal(combined, join_result(two_table_instance))

    def test_masks_partition_domain(self, two_table_instance):
        partition = partition_two_table(two_table_instance, 0.5, 1e-4, seed=0)
        coverage = np.zeros_like(partition.buckets[0].join_value_mask, dtype=int)
        for bucket in partition.buckets:
            coverage += bucket.join_value_mask.astype(int)
        assert np.all(coverage == 1)

    def test_heavy_values_in_higher_buckets(self):
        # One join value with degree 200, many with degree 1; with λ ≈ 9 the
        # heavy value must land in a strictly higher bucket.
        values = [0] * 200 + list(range(1, 31))
        instance = Instance.from_tuple_lists(
            two_table_query(230, 31, 230),
            {"R1": list(enumerate(values)), "R2": [(b, a) for a, b in enumerate(values)]},
        )
        partition = partition_two_table(instance, 1.0, 1e-4, seed=1)
        assert partition.num_buckets >= 2
        heavy_bucket = max(bucket.index for bucket in partition.buckets)
        heavy = [b for b in partition.buckets if b.index == heavy_bucket][0]
        assert heavy.sub_instance.relation("R1").total() >= 200

    def test_bucket_degree_cap_respected(self):
        """True degrees in bucket i are at most λ·2^i (noise only pushes up)."""
        instance = figure3_instance(100)
        lam = default_lambda(1.0, 1e-4)
        partition = partition_two_table(instance, 1.0, 1e-4, lam=lam, seed=2)
        shared = list(partition.shared_attributes)
        for bucket in partition.buckets:
            first, second = bucket.sub_instance.relations
            degrees = np.maximum(first.degree(shared), second.degree(shared))
            assert degrees.max() <= lam * (2**bucket.index) + 1e-9

    def test_rejects_cross_product(self):
        from repro.relational.hypergraph import JoinQuery
        from repro.relational.schema import Attribute, Domain, RelationSchema

        a = Attribute("A", Domain.integers(2))
        b = Attribute("B", Domain.integers(2))
        query = JoinQuery((a, b), (RelationSchema("R1", (a,)), RelationSchema("R2", (b,))))
        instance = Instance.empty(query)
        with pytest.raises(ValueError):
            partition_two_table(instance, 1.0, 1e-4)

    def test_rejects_three_tables(self, path3_instance):
        with pytest.raises(ValueError):
            partition_two_table(path3_instance, 1.0, 1e-4)

    def test_reproducible(self, two_table_instance):
        first = partition_two_table(two_table_instance, 0.5, 1e-4, seed=5)
        second = partition_two_table(two_table_instance, 0.5, 1e-4, seed=5)
        assert [b.index for b in first.buckets] == [b.index for b in second.buckets]
        assert np.array_equal(first.noisy_degrees, second.noisy_degrees)


class TestDecomposeByAttribute:
    def test_strict_ancestors(self, figure4_instance):
        assert strict_ancestor_attributes(figure4_instance, "K") == ("A", "B", "G")
        assert strict_ancestor_attributes(figure4_instance, "A") == ()
        assert strict_ancestor_attributes(figure4_instance, "B") == ("A",)

    def test_root_attribute_gives_single_bucket(self, figure4_instance):
        pieces = decompose_by_attribute(
            figure4_instance, "A", 0.5, 1e-2, lam=10.0, seed=0
        )
        assert len(pieces) == 1
        assert pieces[0][1] == figure4_instance

    def test_join_results_partitioned(self, figure4_instance):
        pieces = decompose_by_attribute(
            figure4_instance, "D", 0.5, 1e-2, lam=2.0, seed=0
        )
        combined = np.zeros(figure4_instance.query.shape, dtype=np.int64)
        for _index, sub in pieces:
            combined += join_result(sub)
        assert np.array_equal(combined, join_result(figure4_instance))

    def test_untouched_relations_carried_over(self, figure4_instance):
        pieces = decompose_by_attribute(
            figure4_instance, "D", 0.5, 1e-2, lam=2.0, seed=0
        )
        for _index, sub in pieces:
            # D only appears in R1, so every other relation is unchanged.
            for name in ("R2", "R3", "R4", "R5"):
                assert sub.relation(name) == figure4_instance.relation(name)


class TestPartitionHierarchical:
    def test_join_results_partitioned(self, figure4_instance):
        partition = partition_hierarchical(figure4_instance, 0.5, 1e-2, seed=0)
        combined = np.zeros(figure4_instance.query.shape, dtype=np.int64)
        for bucket in partition.buckets:
            combined += join_result(bucket.sub_instance)
        assert np.array_equal(combined, join_result(figure4_instance))
        assert sum(join_size(bucket.sub_instance) for bucket in partition.buckets) == join_size(
            figure4_instance
        )

    def test_configurations_are_distinct(self, figure4_instance):
        partition = partition_hierarchical(figure4_instance, 0.5, 1e-2, seed=0)
        configurations = [tuple(sorted(b.configuration.items())) for b in partition.buckets]
        assert len(configurations) == len(set(configurations))

    def test_configuration_covers_all_attributes(self, figure4_instance):
        partition = partition_hierarchical(figure4_instance, 0.5, 1e-2, seed=0)
        for bucket in partition.buckets:
            assert set(bucket.configuration) == set(
                figure4_instance.query.attribute_names
            )

    def test_tuple_multiplicity_bounded(self, figure4_instance):
        partition = partition_hierarchical(figure4_instance, 0.5, 1e-2, seed=0)
        multiplicity = partition.tuple_multiplicity(figure4_instance)
        assert 1 <= multiplicity <= partition.num_buckets

    def test_two_table_query_is_also_hierarchical(self, two_table_instance):
        partition = partition_hierarchical(two_table_instance, 0.5, 1e-3, seed=1)
        combined = np.zeros(two_table_instance.query.shape, dtype=np.int64)
        for bucket in partition.buckets:
            combined += join_result(bucket.sub_instance)
        assert np.array_equal(combined, join_result(two_table_instance))

    def test_rejects_non_hierarchical(self, path3_instance):
        with pytest.raises(ValueError):
            partition_hierarchical(path3_instance, 0.5, 1e-2)

    def test_skewed_instance_splits(self):
        """A join value with degree far above λ forces at least two buckets."""
        from repro.experiments.e08_hierarchical import figure4_skewed_instance

        instance = figure4_skewed_instance(3, heavy_fanout=40, light_tuples=4, seed=1)
        partition = partition_hierarchical(instance, 1.0, 1e-2, lam=4.0, seed=2)
        assert partition.num_buckets >= 2
