"""Tests for SparseVector, SparseDataset and the sum_by_key kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import SparseDataset, SparseVector, sum_by_key


def reference_sum_by_key(keys, values):
    """The duplicate-sum sum_by_key replaces: np.unique + np.add.at."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(distinct.size)
    np.add.at(sums, inverse, values)
    return distinct, sums


def random_dataset(rows=50, features=200, density=0.1, seed=0):
    rng = np.random.default_rng(seed)
    row_list = []
    for _ in range(rows):
        nnz = max(1, rng.binomial(features, density))
        cols = np.sort(rng.choice(features, size=nnz, replace=False))
        vals = rng.normal(size=nnz)
        row_list.append((cols, vals))
    labels = rng.choice([-1.0, 1.0], size=rows)
    return SparseDataset.from_rows(row_list, labels, features)


class TestSparseVector:
    def test_roundtrip_dense(self):
        dense = np.asarray([0.0, 1.5, 0.0, -2.0, 0.0])
        vec = SparseVector.from_dense(dense)
        assert vec.keys.tolist() == [1, 3]
        np.testing.assert_array_equal(vec.to_dense(), dense)
        assert vec.nnz == 2
        assert vec.density == pytest.approx(0.4)

    def test_tolerance_filter(self):
        dense = np.asarray([1e-9, 0.5, -1e-12])
        vec = SparseVector.from_dense(dense, tolerance=1e-6)
        assert vec.keys.tolist() == [1]

    def test_dot(self):
        vec = SparseVector(np.asarray([0, 2]), np.asarray([2.0, 3.0]), 4)
        dense = np.asarray([1.0, 10.0, -1.0, 5.0])
        assert vec.dot(dense) == pytest.approx(2.0 - 3.0)

    def test_add_into(self):
        vec = SparseVector(np.asarray([1, 3]), np.asarray([1.0, -1.0]), 4)
        target = np.zeros(4)
        vec.add_into(target, scale=2.0)
        np.testing.assert_array_equal(target, [0.0, 2.0, 0.0, -2.0])

    def test_scaled_and_norm(self):
        vec = SparseVector(np.asarray([0, 1]), np.asarray([3.0, 4.0]), 2)
        assert vec.l2_norm() == pytest.approx(5.0)
        assert vec.scaled(2.0).values.tolist() == [6.0, 8.0]

    def test_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            SparseVector(np.asarray([2, 1]), np.asarray([1.0, 1.0]), 5)
        with pytest.raises(ValueError, match="keys must lie"):
            SparseVector(np.asarray([5]), np.asarray([1.0]), 5)
        with pytest.raises(ValueError, match="parallel"):
            SparseVector(np.asarray([1]), np.asarray([1.0, 2.0]), 5)


class TestSparseDataset:
    def test_construction_and_shape(self):
        ds = random_dataset()
        assert ds.num_rows == 50
        assert ds.num_features == 200
        assert ds.nnz == ds.indices.size
        assert ds.avg_nnz_per_row == pytest.approx(ds.nnz / 50)

    def test_validation(self):
        with pytest.raises(ValueError, match="indptr"):
            SparseDataset(
                np.asarray([1, 2]), np.asarray([0, 1]), np.ones(2), np.ones(1), 10
            )
        with pytest.raises(ValueError, match="labels"):
            SparseDataset(
                np.asarray([0, 1]), np.asarray([0]), np.ones(1), np.ones(3), 10
            )
        with pytest.raises(ValueError, match="indices must lie"):
            SparseDataset(
                np.asarray([0, 1]), np.asarray([99]), np.ones(1), np.ones(1), 10
            )

    def test_row_access(self):
        ds = random_dataset(seed=1)
        row = ds.row(3)
        start, end = ds.indptr[3], ds.indptr[4]
        np.testing.assert_array_equal(row.keys, ds.indices[start:end])
        np.testing.assert_array_equal(row.values, ds.data[start:end])

    def test_dot_rows_matches_dense(self):
        ds = random_dataset(seed=2)
        theta = np.random.default_rng(3).normal(size=ds.num_features)
        rows = np.asarray([0, 5, 10, 49])
        expected = [ds.row(i).dot(theta) for i in rows]
        np.testing.assert_allclose(ds.dot_rows(rows, theta), expected)

    def test_dot_rows_empty_row(self):
        ds = SparseDataset.from_rows(
            [(np.asarray([1]), np.asarray([2.0])), (np.asarray([], dtype=np.int64), np.asarray([]))],
            np.asarray([1.0, -1.0]),
            5,
        )
        theta = np.ones(5)
        np.testing.assert_allclose(ds.dot_rows(np.asarray([0, 1]), theta), [2.0, 0.0])

    def test_gather_matches_rows(self):
        ds = random_dataset(seed=12)
        rows = np.asarray([4, 0, 4, 9])
        columns, values, lengths = ds.gather(rows)
        assert lengths.tolist() == [ds.row(r).nnz for r in rows]
        np.testing.assert_array_equal(
            columns, np.concatenate([ds.row(r).keys for r in rows])
        )
        np.testing.assert_array_equal(
            values, np.concatenate([ds.row(r).values for r in rows])
        )

    def test_sum_by_key_gradient_matches_dense(self):
        ds = random_dataset(rows=20, seed=4)
        rows = np.arange(10)
        coeff = np.random.default_rng(5).normal(size=10)
        expected = np.zeros(ds.num_features)
        for r, c in zip(rows, coeff):
            ds.row(r).add_into(expected, scale=c)
        columns, values, lengths = ds.gather(rows)
        keys, grad = sum_by_key(columns, values * np.repeat(coeff, lengths))
        np.testing.assert_array_equal(keys, np.flatnonzero(expected != 0.0))
        np.testing.assert_allclose(grad, expected[keys])

    def test_sum_by_key_validation(self):
        with pytest.raises(ValueError, match="parallel"):
            sum_by_key(np.asarray([0, 1]), np.asarray([1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            sum_by_key(np.asarray([3, -1]), np.asarray([1.0, 2.0]))

    def test_active_columns(self):
        ds = random_dataset(seed=7)
        rows = np.asarray([0, 1])
        columns, values, _ = ds.gather(rows)
        active, _ = sum_by_key(columns, values)
        manual = np.unique(
            np.concatenate([ds.row(0).keys, ds.row(1).keys])
        )
        np.testing.assert_array_equal(active, manual)

    def test_subset_preserves_rows(self):
        ds = random_dataset(seed=8)
        rows = np.asarray([3, 7, 11])
        sub = ds.subset(rows)
        assert sub.num_rows == 3
        for i, r in enumerate(rows):
            np.testing.assert_array_equal(sub.row(i).keys, ds.row(r).keys)
            np.testing.assert_array_equal(sub.row(i).values, ds.row(r).values)
            assert sub.labels[i] == ds.labels[r]

    def test_iter_batches_covers_all_rows(self):
        ds = random_dataset(rows=25, seed=9)
        rng = np.random.default_rng(0)
        seen = np.concatenate(list(ds.iter_batches(7, rng)))
        assert sorted(seen.tolist()) == list(range(25))

    def test_iter_batches_sizes(self):
        ds = random_dataset(rows=25, seed=10)
        rng = np.random.default_rng(0)
        sizes = [b.size for b in ds.iter_batches(7, rng)]
        assert sizes == [7, 7, 7, 4]

    def test_iter_batches_validation(self):
        ds = random_dataset(seed=11)
        with pytest.raises(ValueError):
            list(ds.iter_batches(0, np.random.default_rng(0)))


@given(
    rows=st.integers(min_value=1, max_value=20),
    features=st.integers(min_value=5, max_value=100),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=25, deadline=None)
def test_dot_gradient_adjoint_property(rows, features, seed):
    """<X r, c> == <r, X^T c> — dot_rows and the gather + sum_by_key
    transpose product are adjoint."""
    rng = np.random.default_rng(seed)
    row_list = []
    for _ in range(rows):
        nnz = rng.integers(1, features)
        cols = np.sort(rng.choice(features, size=nnz, replace=False))
        row_list.append((cols, rng.normal(size=nnz)))
    ds = SparseDataset.from_rows(row_list, np.zeros(rows), features)
    theta = rng.normal(size=features)
    coeff = rng.normal(size=rows)
    all_rows = np.arange(rows)
    lhs = float(np.dot(ds.dot_rows(all_rows, theta), coeff))
    columns, values, lengths = ds.gather(all_rows)
    keys, grad = sum_by_key(columns, values * np.repeat(coeff, lengths))
    rhs = float(np.dot(theta[keys], grad))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestSumByKey:
    def test_empty_input(self):
        keys, sums = sum_by_key(np.empty(0, dtype=np.int64), np.empty(0))
        assert keys.dtype == np.int64 and keys.size == 0
        assert sums.dtype == np.float64 and sums.size == 0

    def test_sums_in_input_order(self):
        # Left to right: ((1e16 + 1) - 1e16) + 1 == 1.0.  A pairwise
        # ((1e16 + 1) + (-1e16 + 1)), sorted or reduceat sum gives 0.0,
        # so a switch to any of them fails here.
        values = np.asarray([1e16, 1.0, -1e16, 1.0])
        keys, sums = sum_by_key(np.zeros(4, dtype=np.int64), values)
        assert keys.tolist() == [0]
        assert sums.tolist() == [1.0]
        assert np.add.reduceat(values, [0])[0] == 0.0
        assert (values[0] + values[1]) + (values[2] + values[3]) == 0.0
        np.testing.assert_array_equal(
            sums, reference_sum_by_key(np.zeros(4, dtype=np.int64), values)[1]
        )


_key_multisets = st.integers(min_value=1, max_value=400).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=dim - 1),
                st.sampled_from([0, dim - 1]),
            ),
            max_size=300,
        ),
    )
)


@given(
    case=_key_multisets,
    heavy=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_sum_by_key_matches_unique_add_at(case, heavy, seed):
    """Bit-identical to np.unique(return_inverse) + np.add.at, including
    heavy duplicates, one key, keys 0 and D-1 and empty input."""
    dim, key_list = case
    rng = np.random.default_rng(seed)
    keys = np.asarray(key_list, dtype=np.int64)
    if heavy and keys.size:
        keys = rng.choice(keys[:3], size=keys.size * 4)
    # Mixed magnitudes make the summation order visible in the bits.
    values = rng.laplace(size=keys.size) * 10.0 ** rng.integers(-8, 9, keys.size)
    got_keys, got_sums = sum_by_key(keys, values)
    ref_keys, ref_sums = reference_sum_by_key(keys, values)
    assert got_keys.dtype == np.int64
    np.testing.assert_array_equal(got_keys, ref_keys)
    np.testing.assert_array_equal(got_sums.view(np.uint64), ref_sums.view(np.uint64))
