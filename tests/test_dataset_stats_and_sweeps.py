"""Tests for dataset statistics."""

import numpy as np
import pytest

from repro.analysis import DatasetStats, dataset_stats
from repro.data import SparseDataset, generate_profile


class TestDatasetStats:
    def test_basic_numbers(self):
        ds = generate_profile("kdd10", seed=0, scale=0.1)
        stats = dataset_stats(ds)
        assert stats.num_rows == ds.num_rows
        assert stats.num_features == ds.num_features
        assert stats.nnz == ds.nnz
        assert 0 < stats.density < 1
        assert stats.avg_nnz_per_row == pytest.approx(ds.avg_nnz_per_row)
        assert stats.max_nnz_per_row >= stats.avg_nnz_per_row
        assert 0 < stats.active_features <= ds.num_features
        assert 0 <= stats.positive_label_fraction <= 1

    def test_zipf_exponent_recovered(self):
        """The estimated slope should land near the generator's setting."""
        ds = generate_profile("kdd12-hothead", seed=0, scale=0.25)  # zipf 1.6
        stats = dataset_stats(ds)
        assert stats.estimated_zipf_exponent == pytest.approx(1.6, abs=0.5)

    def test_head_mass_higher_for_hothead(self):
        plain = dataset_stats(generate_profile("kdd12", seed=0, scale=0.1))
        hot = dataset_stats(
            generate_profile("kdd12-hothead", seed=0, scale=0.1)
        )
        assert hot.head_mass_100 > plain.head_mass_100

    def test_empty_rejected(self):
        empty = SparseDataset(
            np.asarray([0]),
            np.empty(0, dtype=np.int64),
            np.empty(0),
            np.empty(0),
            10,
        )
        with pytest.raises(ValueError, match="empty"):
            dataset_stats(empty)
