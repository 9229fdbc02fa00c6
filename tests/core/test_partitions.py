"""Unit tests for the uniformization partitions (Algorithms 5, 6, 7)."""

import numpy as np
import pytest

from repro.core.hierarchical import (
    decompose_by_attribute,
    partition_hierarchical,
    strict_ancestor_attributes,
)
from repro.core.partition_two_table import bucket_by_noisy_degree, partition_two_table
from repro.datagen.synthetic import figure3_instance
from repro.mechanisms.truncated_laplace import default_lambda, sample_truncated_laplace
from repro.relational.hypergraph import two_table_query
from repro.relational.instance import Instance
from repro.relational.join import join_size
from repro.sensitivity.configurations import bucket_index
from repro.sensitivity.degrees import degree_vector
from tests.relational.test_oracles import join_result


class TestPartitionTwoTable:
    def test_default_lambda(self):
        import math

        assert default_lambda(0.5, 1e-4) == pytest.approx(math.log(1e4) / 0.5)
        with pytest.raises(ValueError):
            default_lambda(0.0, 1e-4)
        with pytest.raises(ValueError):
            default_lambda(1.0, 0.0)

    def test_tuples_partitioned(self, two_table_instance):
        partition = partition_two_table(
            two_table_instance, 0.5, 1e-4, rng=np.random.default_rng(0)
        )
        total = sum(bucket.sub_instance.total_size() for bucket in partition.buckets)
        assert total == two_table_instance.total_size()

    def test_join_results_partitioned(self, two_table_instance):
        partition = partition_two_table(
            two_table_instance, 0.5, 1e-4, rng=np.random.default_rng(0)
        )
        combined = np.zeros(two_table_instance.query.shape, dtype=np.int64)
        for bucket in partition.buckets:
            combined += join_result(bucket.sub_instance)
        assert np.array_equal(combined, join_result(two_table_instance))

    def test_masks_partition_domain(self, two_table_instance):
        partition = partition_two_table(
            two_table_instance, 0.5, 1e-4, rng=np.random.default_rng(0)
        )
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
        partition = partition_two_table(instance, 1.0, 1e-4, rng=np.random.default_rng(1))
        assert partition.num_buckets >= 2
        heavy_bucket = max(bucket.index for bucket in partition.buckets)
        heavy = [b for b in partition.buckets if b.index == heavy_bucket][0]
        assert heavy.sub_instance.relation("R1").total() >= 200

    def test_bucket_degree_cap_respected(self):
        """True degrees in bucket i are at most λ·2^i (noise only pushes up)."""
        instance = figure3_instance(100)
        lam = default_lambda(1.0, 1e-4)
        partition = partition_two_table(instance, 1.0, 1e-4, rng=np.random.default_rng(2))
        assert partition.lam == lam
        assert partition.shared_attributes == ("B",)  # R1(A, B) ⋈ R2(B, C)
        for bucket in partition.buckets:
            first, second = bucket.sub_instance.relations
            degrees = np.maximum(first.frequencies.sum(axis=0), second.frequencies.sum(axis=1))
            assert degrees.max() <= lam * (2**bucket.index) + 1e-9

    def test_a_degree_past_2_to_63_raises(self):
        # R2(B, C) gives B's one value degree 2^63; it read -2^63, so the
        # partition bucketed R1's degree of 1 instead.
        instance = Instance.from_frequencies(
            two_table_query(1, 1, 2),
            {"R1": np.array([[1]]), "R2": np.array([[2**62, 2**62]])},
        )
        with pytest.raises(OverflowError, match=r"\bR2\b.*2\*\*63"):
            partition_two_table(instance, 1.0, 1e-4, rng=np.random.default_rng(0))

    def test_rejects_cross_product(self, rng):
        from repro.relational.hypergraph import JoinQuery
        from repro.relational.schema import Attribute, Domain, RelationSchema

        a = Attribute("A", Domain.integers(2))
        b = Attribute("B", Domain.integers(2))
        query = JoinQuery((a, b), (RelationSchema("R1", (a,)), RelationSchema("R2", (b,))))
        instance = Instance.empty(query)
        with pytest.raises(ValueError):
            partition_two_table(instance, 1.0, 1e-4, rng=rng)

    def test_rejects_three_tables(self, path3_instance, rng):
        with pytest.raises(ValueError):
            partition_two_table(path3_instance, 1.0, 1e-4, rng=rng)

    def test_reproducible(self, two_table_instance):
        first = partition_two_table(two_table_instance, 0.5, 1e-4, rng=np.random.default_rng(5))
        second = partition_two_table(two_table_instance, 0.5, 1e-4, rng=np.random.default_rng(5))
        assert [b.index for b in first.buckets] == [b.index for b in second.buckets]
        assert np.array_equal(first.noisy_degrees, second.noisy_degrees)


class TestBucketByNoisyDegree:
    """The noisy bucketing step Algorithms 5 and 7 share."""

    def test_one_draw_per_value_in_flat_order(self, figure4_instance):
        # K's strict ancestors (A, B, G) give a 3 × 3 × 3 degree array.
        atom = sorted(figure4_instance.query.atom("K"))
        ancestors = ["A", "B", "G"]
        degrees = degree_vector(figure4_instance, atom, ancestors)
        generator, reference = np.random.default_rng(5), np.random.default_rng(5)
        noisy, buckets = bucket_by_noisy_degree(
            figure4_instance, atom, ancestors, degrees, 0.5, 1e-2, 2.0, generator
        )
        noise = sample_truncated_laplace(1.0, 0.5, 1e-2, size=degrees.size, rng=reference)
        assert np.array_equal(noisy, degrees + noise.reshape(degrees.shape))
        grid = np.vectorize(lambda value: bucket_index(value, 2.0))(noisy)
        assert [bucket.index for bucket in buckets] == sorted(set(grid.flat))
        for bucket in buckets:
            assert np.array_equal(bucket.join_value_mask, grid == bucket.index)
        assert generator.uniform() == reference.uniform()  # no draw beyond the 27

    def test_a_root_degree_reads_one_scalar_draw(self, figure4_instance):
        # With no ancestors the degree is 0-d; it used to take a scalar draw.
        atom = sorted(figure4_instance.query.atom("A"))
        degree = degree_vector(figure4_instance, atom, [])
        assert degree.shape == ()
        generator, reference = np.random.default_rng(9), np.random.default_rng(9)
        noisy, buckets = bucket_by_noisy_degree(
            figure4_instance, atom, [], degree, 0.5, 1e-2, 2.0, generator
        )
        scalar = float(degree) + sample_truncated_laplace(1.0, 0.5, 1e-2, rng=reference)
        assert noisy.shape == () and float(noisy) == scalar
        assert [bucket.index for bucket in buckets] == [bucket_index(scalar, 2.0)]
        assert buckets[0].sub_instance == figure4_instance
        assert generator.uniform() == reference.uniform()  # the same stream position

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("step", ["bucket_by_noisy_degree", "decompose_by_attribute"])
    def test_a_bad_lambda_is_refused_before_any_draw(
        self, step, lam, two_table_instance, figure4_instance
    ):
        # Both partitions used to draw first, then fail on λ: "lam must be
        # positive" for 0 and −1, a NaN-to-integer error and a math domain error.
        # The partitions take λ from (ε, δ); these two steps are handed it.
        generator = np.random.default_rng(0)
        before = generator.bit_generator.state
        with pytest.raises(ValueError, match="lam"):
            if step == "bucket_by_noisy_degree":
                degrees = degree_vector(two_table_instance, [0], ["B"])
                bucket_by_noisy_degree(
                    two_table_instance, (0, 1), ["B"], degrees, 1.0, 1e-4, lam, generator
                )
            else:
                decompose_by_attribute(figure4_instance, "K", 1.0, 1e-2, lam=lam, rng=generator)
        assert generator.bit_generator.state == before


class TestDecomposeByAttribute:
    def test_strict_ancestors(self, figure4_instance):
        assert strict_ancestor_attributes(figure4_instance, "K") == ("A", "B", "G")
        assert strict_ancestor_attributes(figure4_instance, "A") == ()
        assert strict_ancestor_attributes(figure4_instance, "B") == ("A",)

    def test_root_attribute_gives_single_bucket(self, figure4_instance):
        pieces = decompose_by_attribute(
            figure4_instance, "A", 0.5, 1e-2, lam=10.0, rng=np.random.default_rng(0)
        )
        assert len(pieces) == 1
        assert pieces[0][1] == figure4_instance

    def test_join_results_partitioned(self, figure4_instance):
        pieces = decompose_by_attribute(
            figure4_instance, "D", 0.5, 1e-2, lam=2.0, rng=np.random.default_rng(0)
        )
        combined = np.zeros(figure4_instance.query.shape, dtype=np.int64)
        for _index, sub in pieces:
            combined += join_result(sub)
        assert np.array_equal(combined, join_result(figure4_instance))

    def test_untouched_relations_carried_over(self, figure4_instance):
        pieces = decompose_by_attribute(
            figure4_instance, "D", 0.5, 1e-2, lam=2.0, rng=np.random.default_rng(0)
        )
        for _index, sub in pieces:
            # D only appears in R1, so every other relation is unchanged.
            for name in ("R2", "R3", "R4", "R5"):
                assert sub.relation(name) == figure4_instance.relation(name)


class TestPartitionHierarchical:
    def test_join_results_partitioned(self, figure4_instance):
        partition = partition_hierarchical(
            figure4_instance, 0.5, 1e-2, rng=np.random.default_rng(0)
        )
        combined = np.zeros(figure4_instance.query.shape, dtype=np.int64)
        for bucket in partition.buckets:
            combined += join_result(bucket.sub_instance)
        assert np.array_equal(combined, join_result(figure4_instance))
        assert sum(join_size(bucket.sub_instance) for bucket in partition.buckets) == join_size(
            figure4_instance
        )

    def test_configurations_are_distinct(self, figure4_instance):
        partition = partition_hierarchical(
            figure4_instance, 0.5, 1e-2, rng=np.random.default_rng(0)
        )
        configurations = [tuple(sorted(b.configuration.items())) for b in partition.buckets]
        assert len(configurations) == len(set(configurations))

    def test_configuration_covers_all_attributes(self, figure4_instance):
        partition = partition_hierarchical(
            figure4_instance, 0.5, 1e-2, rng=np.random.default_rng(0)
        )
        for bucket in partition.buckets:
            assert set(bucket.configuration) == set(
                figure4_instance.query.attribute_names
            )

    def test_tuple_multiplicity_bounded(self, figure4_instance):
        partition = partition_hierarchical(
            figure4_instance, 0.5, 1e-2, rng=np.random.default_rng(0)
        )
        multiplicity = partition.tuple_multiplicity(figure4_instance)
        assert 1 <= multiplicity <= partition.num_buckets

    def test_two_table_query_is_also_hierarchical(self, two_table_instance):
        partition = partition_hierarchical(
            two_table_instance, 0.5, 1e-3, rng=np.random.default_rng(1)
        )
        combined = np.zeros(two_table_instance.query.shape, dtype=np.int64)
        for bucket in partition.buckets:
            combined += join_result(bucket.sub_instance)
        assert np.array_equal(combined, join_result(two_table_instance))

    def test_rejects_non_hierarchical(self, path3_instance, rng):
        with pytest.raises(ValueError):
            partition_hierarchical(path3_instance, 0.5, 1e-2, rng=rng)

    def test_skewed_instance_splits(self):
        """A join value with degree far above λ forces at least two buckets."""
        from repro.experiments.e08_hierarchical import figure4_skewed_instance

        instance = figure4_skewed_instance(3, heavy_fanout=40, light_tuples=4, seed=1)
        partition = partition_hierarchical(instance, 1.0, 1e-2, rng=np.random.default_rng(2))
        assert partition.lam == default_lambda(1.0, 1e-2)
        assert partition.num_buckets >= 2
