"""Unit tests for Algorithm 4 (uniformize) and the SyntheticDataset object."""

import numpy as np
import pytest

from repro.core.pmw import PMWConfig
from repro.core.result import ReleaseResult
from repro.core.synthetic import SyntheticDataset
from repro.core.uniformize import uniformize_release
from repro.mechanisms.spec import PrivacySpec
from repro.queries.linear import counting_query
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query
from repro.relational.join import join_result

FAST = PMWConfig(max_iterations=4)


class TestUniformizeRelease:
    def test_two_table_privacy_spec_is_nominal(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        result = uniformize_release(
            two_table_instance, workload, 1.0, 1e-3, seed=0, pmw_config=FAST
        )
        # Lemma 4.1: the two-table uniformization pays exactly (ε, δ).
        assert result.privacy == PrivacySpec(1.0, 1e-3)
        assert result.algorithm == "uniformize_two_table"
        assert result.diagnostics["num_buckets"] >= 1

    def test_histogram_is_sum_of_buckets(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        result = uniformize_release(
            two_table_instance, workload, 1.0, 1e-3, seed=0, pmw_config=FAST
        )
        per_bucket_totals = [entry["join_size"] for entry in result.diagnostics["buckets"]]
        assert result.synthetic.total_mass() == pytest.approx(
            sum(per_bucket_totals), rel=1e-6
        )

    def test_hierarchical_privacy_blowup_reported(self, figure4_instance):
        workload = Workload.counting(figure4_instance.query)
        result = uniformize_release(
            figure4_instance,
            workload,
            1.0,
            1e-2,
            method="hierarchical",
            seed=0,
            pmw_config=FAST,
        )
        assert result.algorithm == "uniformize_hierarchical"
        # Lemma 4.11: the reported guarantee is at least the nominal one.
        assert result.privacy.epsilon >= 1.0
        assert result.diagnostics["tuple_multiplicity"] >= 1
        assert "nominal_privacy" in result.diagnostics

    def test_auto_method_selection(self, two_table_instance, figure4_instance):
        workload2 = Workload.counting(two_table_instance.query)
        result2 = uniformize_release(
            two_table_instance, workload2, 1.0, 1e-3, seed=0, pmw_config=FAST
        )
        assert result2.diagnostics["method"] == "two_table"
        workload4 = Workload.counting(figure4_instance.query)
        result4 = uniformize_release(
            figure4_instance, workload4, 1.0, 1e-2, seed=0, pmw_config=FAST
        )
        assert result4.diagnostics["method"] == "hierarchical"

    def test_non_hierarchical_rejected(self, path3_instance):
        workload = Workload.counting(path3_instance.query)
        with pytest.raises(ValueError):
            uniformize_release(
                path3_instance, workload, 1.0, 1e-3, method="hierarchical", pmw_config=FAST
            )

    def test_unknown_method_rejected(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        with pytest.raises(ValueError):
            uniformize_release(
                two_table_instance, workload, 1.0, 1e-3, method="magic", pmw_config=FAST
            )

    def test_reproducible(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        first = uniformize_release(
            two_table_instance, workload, 1.0, 1e-3, seed=4, pmw_config=FAST
        )
        second = uniformize_release(
            two_table_instance, workload, 1.0, 1e-3, seed=4, pmw_config=FAST
        )
        assert np.array_equal(first.synthetic.histogram, second.synthetic.histogram)


class TestSyntheticDataset:
    def _make(self, query, histogram=None):
        if histogram is None:
            histogram = np.ones(query.shape)
        return SyntheticDataset(
            join_query=query, histogram=histogram, privacy=PrivacySpec(1.0, 1e-5)
        )

    def test_shape_checked(self):
        query = two_table_query(2, 2, 2)
        with pytest.raises(ValueError):
            SyntheticDataset(query, np.ones((2, 2)), PrivacySpec(1.0, 1e-5))

    def test_negative_mass_rejected(self):
        query = two_table_query(2, 2, 2)
        with pytest.raises(ValueError):
            SyntheticDataset(query, -np.ones(query.shape), PrivacySpec(1.0, 1e-5))

    def test_total_mass_and_answers(self, two_table_instance):
        query = two_table_instance.query
        exact = join_result(two_table_instance).astype(float)
        synthetic = self._make(query, exact)
        assert synthetic.total_mass() == pytest.approx(exact.sum())
        count = counting_query(query)
        assert synthetic.answer(count) == pytest.approx(exact.sum())
        workload = Workload.counting(query)
        release = ReleaseResult(synthetic=synthetic, privacy=synthetic.privacy, algorithm="test")
        assert release.answer_workload(workload)[0] == pytest.approx(exact.sum())

    def test_union_adds_histograms(self):
        query = two_table_query(2, 2, 2)
        first = self._make(query, np.full(query.shape, 1.0))
        second = self._make(query, np.full(query.shape, 2.0))
        union = first.union(second)
        assert union.total_mass() == pytest.approx(3.0 * 8)

    def test_union_defaults_to_basic_composition(self):
        query = two_table_query(2, 2, 2)
        first = SyntheticDataset(query, np.ones(query.shape), PrivacySpec(1.0, 1e-6))
        second = SyntheticDataset(query, np.ones(query.shape), PrivacySpec(0.5, 2e-6))
        union = first.union(second)
        assert union.privacy.epsilon == pytest.approx(1.5)
        assert union.privacy.delta == pytest.approx(3e-6)

    def test_union_keeps_explicit_privacy(self):
        query = two_table_query(2, 2, 2)
        first = SyntheticDataset(query, np.ones(query.shape), PrivacySpec(1.0, 1e-6))
        second = SyntheticDataset(query, np.ones(query.shape), PrivacySpec(0.5, 2e-6))
        spec = PrivacySpec(1.0, 2e-6)
        assert first.union(second, privacy=spec).privacy == spec

    def test_union_requires_same_domain(self):
        first = self._make(two_table_query(2, 2, 2))
        second = self._make(two_table_query(2, 2, 3))
        with pytest.raises(ValueError):
            first.union(second)

    def test_round_preserves_expected_mass(self, rng):
        query = two_table_query(3, 3, 3)
        histogram = np.full(query.shape, 0.5)
        synthetic = self._make(query, histogram)
        rounded = synthetic.round(rng)
        assert rounded.dtype == np.int64
        assert 0 <= rounded.sum() <= histogram.size
        # Expected total is preserved on average.
        totals = [synthetic.round(rng).sum() for _ in range(30)]
        assert np.mean(totals) == pytest.approx(histogram.sum(), rel=0.3)

    def test_to_tuples_threshold(self):
        query = two_table_query(2, 2, 2)
        histogram = np.zeros(query.shape)
        histogram[0, 1, 0] = 3.0
        histogram[1, 1, 1] = 0.2
        synthetic = self._make(query, histogram)
        tuples = list(synthetic.to_tuples(threshold=0.5))
        assert tuples == [((0, 1, 0), 3.0)]


class TestFlatSliceAssembly:
    """Assembling the PMW session's averaged slices into one histogram."""

    def test_assemble_rejects_gaps_and_overlaps(self):
        from repro.core.synthetic import assemble_flat_histogram

        cells = np.ones(4)
        assert np.array_equal(
            assemble_flat_histogram(8, [(0, 4, cells), (4, 8, cells)]), np.ones(8)
        )
        with pytest.raises(ValueError):
            assemble_flat_histogram(8, [(0, 4, cells)])  # gap: cells 4..8 missing
        with pytest.raises(ValueError):
            assemble_flat_histogram(8, [(0, 4, cells), (2, 6, cells), (4, 8, cells)])
        with pytest.raises(ValueError):
            assemble_flat_histogram(8, [(0, 4, cells), (2, 6, cells)])  # overlap and gap
        with pytest.raises(ValueError):
            assemble_flat_histogram(8, [(4, 12, np.ones(8))])  # one slice, shifted

    def test_one_whole_domain_slice_is_returned_without_a_copy(self):
        from repro.core.synthetic import assemble_flat_histogram

        cells = np.arange(8.0)
        assert assemble_flat_histogram(8, [(0, 8, cells)]) is cells
        assert assemble_flat_histogram(8, iter([(0, 8, cells)])) is cells
