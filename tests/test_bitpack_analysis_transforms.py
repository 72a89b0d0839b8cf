"""Tests for bit packing, gradient analysis, and dataset transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    compare_compressors,
    format_report,
    histogram,
    profile_gradient,
)
from repro.core.bitpack import pack_uint_array, packed_size_bytes, unpack_uint_array
from repro.data import (
    generate_profile,
    hash_features,
    normalize_rows,
    subsample_rows,
)


class TestBitPack:
    def test_validation(self):
        with pytest.raises(ValueError):
            pack_uint_array(np.asarray([1]), bits=0)
        with pytest.raises(ValueError):
            pack_uint_array(np.asarray([1]), bits=17)
        with pytest.raises(ValueError):
            pack_uint_array(np.asarray([8]), bits=3)  # 8 >= 2**3
        with pytest.raises(ValueError):
            pack_uint_array(np.asarray([-1]), bits=3)
        with pytest.raises(ValueError):
            pack_uint_array(np.asarray([[1, 2]]), bits=3)
        with pytest.raises(ValueError):
            unpack_uint_array(b"", 5, 4)  # too short
        with pytest.raises(ValueError):
            packed_size_bytes(-1, 4)

    def test_empty(self):
        assert pack_uint_array(np.asarray([], dtype=np.int64), 7) == b""
        assert unpack_uint_array(b"", 0, 7).size == 0

    @pytest.mark.parametrize("bits", [1, 3, 7, 8, 12, 16])
    def test_roundtrip(self, bits):
        rng = np.random.default_rng(bits)
        values = rng.integers(0, 1 << bits, size=1_000)
        blob = pack_uint_array(values, bits)
        assert len(blob) == packed_size_bytes(values.size, bits)
        np.testing.assert_array_equal(
            unpack_uint_array(blob, values.size, bits), values
        )

    def test_size_savings(self):
        """7-bit packing really saves 1/8 over bytes."""
        values = np.arange(128).repeat(8)
        blob = pack_uint_array(values, 7)
        assert len(blob) == values.size * 7 // 8

    @given(
        bits=st.integers(min_value=1, max_value=16),
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, bits, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 << bits, size=n)
        blob = pack_uint_array(values, bits)
        np.testing.assert_array_equal(unpack_uint_array(blob, n, bits), values)

    @staticmethod
    def _unpack_reference(blob, count, bits):
        """The pre-rewrite expression: an ``n x bits`` int64 bit matrix,
        shifted and summed.  Kept as the executable spec."""
        needed = packed_size_bytes(count, bits)
        bit_array = np.unpackbits(
            np.frombuffer(blob[:needed], dtype=np.uint8),  # repro: noqa[wire-format] — the reference unpack reads the packed bytes exactly as the old implementation did
            count=count * bits,
        )
        bit_matrix = bit_array.reshape(count, bits).astype(np.int64)
        shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
        return (bit_matrix << shifts[None, :]).sum(axis=1)

    @given(
        bits=st.integers(min_value=1, max_value=16),
        count=st.integers(min_value=0, max_value=600),
        slack=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_unpack_matches_bit_matrix_reference(self, bits, count, slack, seed):
        """Arbitrary bytes (not only ``pack`` output), every width,
        trailing slack bytes: same values, same dtype, same error."""
        needed = packed_size_bytes(count, bits)
        data = np.random.default_rng(seed).bytes(needed + slack)
        got = unpack_uint_array(data, count, bits)
        assert got.dtype == np.int64 and got.shape == (count,)
        if count:
            np.testing.assert_array_equal(
                got, self._unpack_reference(data, count, bits)
            )
            with pytest.raises(ValueError, match="needed"):
                unpack_uint_array(data[:needed - 1], count, bits)


class TestGradientProfile:
    def make(self, seed=0, scale=0.01, nnz=5_000, dimension=100_000):
        rng = np.random.default_rng(seed)
        keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
        values = rng.laplace(scale=scale, size=nnz)
        values[values == 0.0] = scale / 100
        return keys, values, dimension

    def test_validation(self):
        with pytest.raises(ValueError):
            profile_gradient(np.asarray([1]), np.asarray([1.0, 2.0]), 10)
        with pytest.raises(ValueError):
            profile_gradient(np.asarray([], dtype=np.int64), np.asarray([]), 10)
        with pytest.raises(ValueError):
            profile_gradient(np.asarray([1]), np.asarray([1.0]), 0)

    def test_laplace_gradient_is_friendly(self):
        keys, values, dim = self.make()
        profile = profile_gradient(keys, values, dim)
        assert profile.nnz == 5_000
        assert profile.density == pytest.approx(0.05)
        assert profile.near_zero_fraction > 0.5
        assert profile.uniformity_ks > 0.3
        assert profile.is_sketchml_friendly
        assert 1.0 <= profile.bytes_per_key < 2.0

    def test_uniform_dense_gradient_is_not_friendly(self):
        rng = np.random.default_rng(1)
        dimension = 1_000
        keys = np.arange(dimension)
        values = rng.uniform(0.5, 1.0, size=dimension)  # uniform magnitudes
        profile = profile_gradient(keys, values, dimension)
        assert not profile.is_sketchml_friendly

    def test_concentration(self):
        # One giant value among tiny ones: 90% of mass in ~1 entry.
        keys = np.arange(100)
        values = np.full(100, 1e-6)
        values[50] = 100.0
        profile = profile_gradient(keys, values, 1_000)
        assert profile.concentration_90 == pytest.approx(0.01, abs=0.01)

    def test_histogram(self):
        edges, counts = histogram(np.asarray([0.0, 0.5, 1.0]), bins=2)
        assert edges.size == 3
        assert counts.sum() == 3
        with pytest.raises(ValueError):
            histogram(np.asarray([]))
        with pytest.raises(ValueError):
            histogram(np.asarray([1.0]), bins=0)


class TestCompressionReport:
    def test_all_registered_codecs(self):
        rng = np.random.default_rng(2)
        keys = np.sort(rng.choice(50_000, size=2_000, replace=False))
        values = rng.laplace(scale=0.01, size=2_000)
        values[values == 0.0] = 1e-6
        rows = compare_compressors(keys, values, 50_000)
        names = {r.name for r in rows}
        assert "sketchml" in names and "identity" in names
        # Sorted by size; identity is the largest lossless codec.
        sizes = [r.num_bytes for r in rows]
        assert sizes == sorted(sizes)
        identity = next(r for r in rows if r.name == "identity")
        assert identity.keys_lossless and identity.value_mae == 0.0
        report = format_report(rows)
        assert "sketchml" in report

    def test_subset_of_codecs(self):
        keys = np.arange(100)
        values = np.linspace(-1, 1, 100)
        values[values == 0.0] = 0.01
        rows = compare_compressors(keys, values, 100, names=["identity", "zipml"])
        assert len(rows) == 2


class TestTransforms:
    def test_hash_features_shapes(self):
        ds = generate_profile("kdd10", seed=0, scale=0.02)
        hashed = hash_features(ds, target_dim=1_024, seed=0)
        assert hashed.num_features == 1_024
        assert hashed.num_rows == ds.num_rows
        assert hashed.indices.max() < 1_024
        np.testing.assert_array_equal(hashed.labels, ds.labels)

    def test_hash_features_preserves_inner_products_approximately(self):
        ds = generate_profile("kdd10", seed=1, scale=0.02)
        hashed = hash_features(ds, target_dim=4_096, seed=0)
        rng = np.random.default_rng(0)
        # Row self-inner-products (squared norms) survive hashing well.
        rows = rng.choice(ds.num_rows, size=30, replace=False)
        for i in rows:
            original = float(np.sum(ds.row(int(i)).values ** 2))
            mapped = float(np.sum(hashed.row(int(i)).values ** 2))
            assert mapped == pytest.approx(original, rel=0.35)

    def test_hash_features_validation(self):
        ds = generate_profile("kdd10", seed=2, scale=0.01)
        with pytest.raises(ValueError):
            hash_features(ds, target_dim=0)

    def test_normalize_rows(self):
        ds = generate_profile("kdd10", seed=3, scale=0.01)
        # Denormalise first so the transform has work to do.
        ds.data *= 3.0
        normalized = normalize_rows(ds)
        for i in range(min(normalized.num_rows, 20)):
            row = normalized.row(i)
            if row.nnz:
                assert row.l2_norm() == pytest.approx(1.0)
        # Original untouched.
        assert ds.row(0).l2_norm() == pytest.approx(3.0, rel=1e-9)

    def test_subsample_rows(self):
        ds = generate_profile("kdd10", seed=4, scale=0.05)
        sub = subsample_rows(ds, fraction=0.25, seed=0)
        assert sub.num_rows == pytest.approx(ds.num_rows * 0.25, abs=1)
        with pytest.raises(ValueError):
            subsample_rows(ds, fraction=0.0)
