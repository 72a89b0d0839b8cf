"""Tests for synthetic dataset generation, LIBSVM I/O, and splits."""

import hashlib

import numpy as np
import pytest

from repro.data import (
    CTR_LIKE,
    KDD12_LIKE,
    SyntheticProfile,
    ctr_like,
    generate_dataset,
    generate_profile,
    kdd12_like,
    mnist_like,
    partition_rows,
    read_libsvm,
    train_test_split,
    write_libsvm,
)


#: sha256 of ``(indptr, indices, data, labels)`` per (profile, scale,
#: seed), recorded from the per-row ``np.unique`` generator that the
#: blocked sort replaced: every benchmark workload trains on these rows.
DATASET_DIGESTS = {
    ("kdd10", 1.0, 0): "3bfd101f55b44ab0791945e5bf02d10014cb4d8d9004d89409fb3d96e34969cc",
    ("kdd10", 1.0, 1): "15b9326e6847739163341d6e8511ebd52894eb6780ebe218caa5b0927c4e0d82",
    ("kdd12", 4.0, 0): "07b38f80a624ffcec5959d5e88a8e6acdf78d54c76b5246d63f5ef0f1c9162d6",
    ("kdd12", 4.0, 1): "564fe4beb0600a44ca333ba2e11bdf0d835058d547d3c08780d8d165d4e6555f",
    ("ctr", 0.5, 0): "d99404c3815a14e5cb7f3be7259ed0c48c2c37d4f0027c2bf2bcc0b7868b5724",
    ("ctr", 0.5, 1): "90fb3b634c30e43b3cd11d5b30c126b7c53e739d2e7c4f8a86c1765e05a139b1",
}


@pytest.mark.parametrize(
    "name,scale,seed", sorted(DATASET_DIGESTS), ids=lambda v: str(v)
)
def test_generated_rows_are_pinned(name, scale, seed):
    dataset = generate_profile(name, seed=seed, scale=scale)
    digest = hashlib.sha256()
    for array in (dataset.indptr, dataset.indices, dataset.data,
                  dataset.labels):
        digest.update(np.ascontiguousarray(array))
    assert digest.hexdigest() == DATASET_DIGESTS[name, scale, seed]


class TestSyntheticGeneration:
    def test_deterministic(self):
        a = generate_profile("kdd10", seed=3, scale=0.05)
        b = generate_profile("kdd10", seed=3, scale=0.05)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seeds_differ(self):
        a = generate_profile("kdd10", seed=1, scale=0.05)
        b = generate_profile("kdd10", seed=2, scale=0.05)
        assert not np.array_equal(a.indices, b.indices)

    def test_scale_controls_rows(self):
        small = generate_profile("ctr", seed=0, scale=0.02)
        assert small.num_rows == pytest.approx(CTR_LIKE.num_rows * 0.02, abs=1)

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown profile"):
            generate_profile("criteo")

    def test_rows_are_normalised(self):
        ds = generate_profile("kdd10", seed=0, scale=0.02)
        for i in range(min(ds.num_rows, 20)):
            norm = np.linalg.norm(ds.row(i).values)
            assert norm == pytest.approx(1.0, abs=1e-9)

    def test_classification_labels(self):
        ds = kdd12_like(seed=0, scale=0.02)
        assert set(np.unique(ds.labels)) <= {-1.0, 1.0}
        # Not degenerate: both classes occur.
        assert len(np.unique(ds.labels)) == 2

    def test_regression_profile(self):
        profile = SyntheticProfile(
            name="reg", num_rows=100, num_features=500,
            avg_nnz_per_row=5, task="regression",
        )
        ds = generate_dataset(profile, seed=0)
        assert np.issubdtype(ds.labels.dtype, np.floating)
        assert len(np.unique(ds.labels)) > 10

    def test_unknown_task(self):
        profile = SyntheticProfile(
            name="x", num_rows=10, num_features=50,
            avg_nnz_per_row=3, task="ranking",
        )
        with pytest.raises(ValueError, match="unknown task"):
            generate_dataset(profile)

    def test_relative_density_matches_paper(self):
        """§4.3.2 relies on KDD12 being sparser than CTR."""
        kdd12 = KDD12_LIKE
        ctr = CTR_LIKE
        kdd12_density = kdd12.avg_nnz_per_row / kdd12.num_features
        ctr_density = ctr.avg_nnz_per_row / ctr.num_features
        assert kdd12_density < ctr_density

    def test_feature_popularity_is_skewed(self):
        """Power-law features: the head must be much hotter than the tail."""
        ds = ctr_like(seed=0, scale=0.1)
        counts = np.bincount(ds.indices, minlength=ds.num_features)
        head = counts[:100].sum()
        assert head > 0.2 * ds.nnz

    def test_gradient_values_nonuniform(self):
        """Figure 4's premise: first-gradient values pile up near zero."""
        from repro.models import LogisticRegression

        ds = kdd12_like(seed=0, scale=0.05)
        model = LogisticRegression(ds.num_features, reg_lambda=0.0)
        keys, values, _ = model.batch_gradient(
            ds, np.arange(ds.num_rows), model.init_theta()
        )
        magnitudes = np.abs(values)
        near_zero = (magnitudes < 0.1 * magnitudes.max()).mean()
        assert near_zero > 0.7  # most values in the bottom decade


class TestMnistLike:
    def test_shapes(self):
        images, labels = mnist_like(num_train=200, seed=0)
        assert images.shape == (200, 400)
        assert labels.shape == (200,)
        assert images.min() >= 0.0 and images.max() <= 1.0
        assert set(np.unique(labels)) <= set(range(10))

    def test_deterministic(self):
        a_img, a_lab = mnist_like(num_train=50, seed=4)
        b_img, b_lab = mnist_like(num_train=50, seed=4)
        np.testing.assert_array_equal(a_img, b_img)
        np.testing.assert_array_equal(a_lab, b_lab)

    def test_classes_separable(self):
        """A nearest-template classifier must beat chance by a margin."""
        images, labels = mnist_like(num_train=500, seed=1)
        centroids = np.stack(
            [images[labels == c].mean(axis=0) for c in range(10)]
        )
        distances = ((images[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        accuracy = (distances.argmin(axis=1) == labels).mean()
        assert accuracy > 0.5


class TestLibsvmIO:
    def test_roundtrip(self, tmp_path):
        ds = generate_profile("kdd10", seed=5, scale=0.01)
        path = tmp_path / "data.libsvm"
        write_libsvm(ds, path)
        loaded = read_libsvm(path, num_features=ds.num_features)
        assert loaded.num_rows == ds.num_rows
        np.testing.assert_array_equal(loaded.indices, ds.indices)
        np.testing.assert_allclose(loaded.data, ds.data)
        np.testing.assert_allclose(loaded.labels, ds.labels)

    def test_zero_based_roundtrip(self, tmp_path):
        ds = generate_profile("kdd10", seed=6, scale=0.01)
        path = tmp_path / "data0.libsvm"
        write_libsvm(ds, path, zero_based=True)
        loaded = read_libsvm(path, num_features=ds.num_features, zero_based=True)
        np.testing.assert_array_equal(loaded.indices, ds.indices)

    def test_infers_num_features(self, tmp_path):
        path = tmp_path / "tiny.libsvm"
        path.write_text("1 1:0.5 7:0.25\n-1 3:1.0\n")
        ds = read_libsvm(path)
        assert ds.num_features == 7  # 1-based index 7 -> column 6
        assert ds.num_rows == 2

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "comments.libsvm"
        path.write_text("# header\n\n1 1:2.0 # trailing\n")
        ds = read_libsvm(path)
        assert ds.num_rows == 1
        assert ds.labels[0] == 1.0

    def test_malformed_label(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("abc 1:1.0\n")
        with pytest.raises(ValueError, match="label"):
            read_libsvm(path)

    def test_malformed_feature(self, tmp_path):
        path = tmp_path / "bad2.libsvm"
        path.write_text("1 1:x\n")
        with pytest.raises(ValueError, match="malformed feature"):
            read_libsvm(path)

    def test_duplicate_feature(self, tmp_path):
        path = tmp_path / "dup.libsvm"
        path.write_text("1 2:1.0 2:2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_libsvm(path)

    def test_index_exceeds_declared_dim(self, tmp_path):
        path = tmp_path / "oob.libsvm"
        path.write_text("1 50:1.0\n")
        with pytest.raises(ValueError, match="num_features"):
            read_libsvm(path, num_features=10)


class TestSplits:
    def test_train_test_disjoint_and_complete(self):
        ds = generate_profile("kdd10", seed=7, scale=0.02)
        train, test = train_test_split(ds, test_fraction=0.25, seed=0)
        assert train.num_rows + test.num_rows == ds.num_rows
        assert test.num_rows == pytest.approx(0.25 * ds.num_rows, abs=1)

    def test_split_validation(self):
        ds = generate_profile("kdd10", seed=8, scale=0.02)
        with pytest.raises(ValueError):
            train_test_split(ds, test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split(ds, test_fraction=1.0)

    def test_partition_rows_balanced(self):
        parts = partition_rows(100, 7, seed=0)
        sizes = [p.size for p in parts]
        assert sum(sizes) == 100
        assert max(sizes) - min(sizes) <= 1
        all_rows = np.concatenate(parts)
        assert sorted(all_rows.tolist()) == list(range(100))

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            partition_rows(5, 10)
        with pytest.raises(ValueError):
            partition_rows(5, 0)
