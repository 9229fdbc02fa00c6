"""Unit tests for Algorithm 4 (uniformize) and the SyntheticDataset object."""

import numpy as np
import pytest

from repro.core.hierarchical import partition_hierarchical
from repro.core.pmw import PMWConfig
from repro.core.result import ReleaseResult
from repro.core.synthetic import SyntheticDataset
from repro.core.uniformize import uniformize_release
from repro.mechanisms.composition import basic_composition, group_privacy
from repro.mechanisms.spec import PrivacySpec
from repro.queries.linear import all_one_query
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query
from tests.relational.test_oracles import join_result

FAST = PMWConfig(max_iterations=4)


class TestUniformizeRelease:
    def test_two_table_privacy_spec_is_nominal(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        result = uniformize_release(
            two_table_instance, workload, 1.0, 1e-3, rng=np.random.default_rng(0), pmw_config=FAST
        )
        # Lemma 4.1: the two-table uniformization pays exactly (ε, δ).
        assert result.privacy == PrivacySpec(1.0, 1e-3)
        assert result.algorithm == "uniformize_two_table"
        assert len(result.diagnostics["buckets"]) >= 1

    def test_histogram_is_sum_of_buckets(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        result = uniformize_release(
            two_table_instance, workload, 1.0, 1e-3, rng=np.random.default_rng(0), pmw_config=FAST
        )
        per_bucket_totals = [entry["noisy_total"] for entry in result.diagnostics["buckets"]]
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
            rng=np.random.default_rng(0),
            pmw_config=FAST,
        )
        assert result.algorithm == "uniformize_hierarchical"
        assert result.diagnostics["nominal_privacy"] == PrivacySpec(1.0, 1e-2)
        # Lemma 4.11: the partition's (ε/2, δ/2) once per attribute of the
        # widest relation (R3 and R4 hold four), composed with group privacy
        # over the multiplicity m of the release's own partition (its first
        # draws), which the record does not hold.
        partition = partition_hierarchical(
            figure4_instance, 0.5, 5e-3, rng=np.random.default_rng(0)
        )
        multiplicity = partition.tuple_multiplicity(figure4_instance)
        assert multiplicity >= 1
        half = PrivacySpec(0.5, 5e-3)
        assert result.privacy == basic_composition(
            [half.scaled(4), group_privacy(half, multiplicity)]
        )
        assert result.privacy.epsilon >= 1.0

    def test_auto_method_selection(self, two_table_instance, figure4_instance):
        workload2 = Workload.counting(two_table_instance.query)
        result2 = uniformize_release(
            two_table_instance, workload2, 1.0, 1e-3, rng=np.random.default_rng(0), pmw_config=FAST
        )
        assert result2.algorithm == "uniformize_two_table"
        workload4 = Workload.counting(figure4_instance.query)
        result4 = uniformize_release(
            figure4_instance, workload4, 1.0, 1e-2, rng=np.random.default_rng(0), pmw_config=FAST
        )
        assert result4.algorithm == "uniformize_hierarchical"

    def test_non_hierarchical_rejected(self, path3_instance, rng):
        workload = Workload.counting(path3_instance.query)
        with pytest.raises(ValueError):
            uniformize_release(
                path3_instance, workload, 1.0, 1e-3, method="hierarchical", rng=rng,
                pmw_config=FAST,
            )

    def test_unknown_method_rejected(self, two_table_instance, rng):
        workload = Workload.counting(two_table_instance.query)
        with pytest.raises(ValueError):
            uniformize_release(
                two_table_instance, workload, 1.0, 1e-3, method="magic", rng=rng, pmw_config=FAST
            )

    def test_reproducible(self, two_table_instance):
        workload = Workload.counting(two_table_instance.query)
        first = uniformize_release(
            two_table_instance, workload, 1.0, 1e-3, rng=np.random.default_rng(4), pmw_config=FAST
        )
        second = uniformize_release(
            two_table_instance, workload, 1.0, 1e-3, rng=np.random.default_rng(4), pmw_config=FAST
        )
        assert np.array_equal(first.synthetic.histogram, second.synthetic.histogram)


class TestSyntheticDataset:
    def _make(self, query, histogram=None):
        if histogram is None:
            histogram = np.ones(query.shape)
        return SyntheticDataset(join_query=query, histogram=histogram)

    def test_shape_checked(self):
        query = two_table_query(2, 2, 2)
        with pytest.raises(ValueError):
            SyntheticDataset(query, np.ones((2, 2)))

    def test_negative_mass_rejected(self):
        query = two_table_query(2, 2, 2)
        with pytest.raises(ValueError):
            SyntheticDataset(query, -np.ones(query.shape))
        barely = np.ones(query.shape)
        barely[0, 0, 0] = -1e-12
        with pytest.raises(ValueError):
            SyntheticDataset(query, barely)

    def test_histogram_kept_without_a_copy(self):
        query = two_table_query(2, 2, 2)
        histogram = np.zeros(query.shape)
        histogram[1, 0, 1] = 2.5
        assert SyntheticDataset(query, histogram).histogram is histogram

    def test_total_mass_and_answers(self, two_table_instance):
        query = two_table_instance.query
        exact = join_result(two_table_instance).astype(float)
        synthetic = self._make(query, exact)
        assert synthetic.total_mass() == pytest.approx(exact.sum())
        count = all_one_query(query)
        assert synthetic.answer(count) == pytest.approx(exact.sum())
        workload = Workload.counting(query)
        release = ReleaseResult(
            synthetic=synthetic, privacy=PrivacySpec(1.0, 1e-5), algorithm="test"
        )
        assert release.answer_workload(workload)[0] == pytest.approx(exact.sum())


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
