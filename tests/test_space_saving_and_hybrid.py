"""Tests for the heavy-hitter hybrid compressor."""

import numpy as np
import pytest

from repro.compression import (
    HeavyHitterSketchMLCompressor,
    make_compressor,
)
from repro.core import SketchMLCompressor, SketchMLConfig


class TestHybridCompressor:
    def make_gradient(self, nnz=5_000, dimension=200_000, seed=0):
        rng = np.random.default_rng(seed)
        keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
        values = rng.laplace(scale=0.01, size=nnz)
        values[values == 0.0] = 1e-6
        return keys, values, dimension

    def test_registered(self):
        assert isinstance(
            make_compressor("sketchml-hybrid"), HeavyHitterSketchMLCompressor
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            HeavyHitterSketchMLCompressor(heavy_fraction=1.5)

    def test_keys_lossless(self):
        keys, values, dim = self.make_gradient(seed=1)
        comp = HeavyHitterSketchMLCompressor(heavy_fraction=0.02)
        out_keys, out_values, _ = comp.roundtrip(keys, values, dim)
        np.testing.assert_array_equal(out_keys, keys)

    def test_heavy_entries_are_exact(self):
        keys, values, dim = self.make_gradient(seed=2)
        comp = HeavyHitterSketchMLCompressor(heavy_fraction=0.02)
        out_keys, out_values, _ = comp.roundtrip(keys, values, dim)
        num_heavy = int(round(keys.size * 0.02))
        heavy_idx = np.argpartition(np.abs(values), -num_heavy)[-num_heavy:]
        decoded = dict(zip(out_keys.tolist(), out_values.tolist()))
        for i in heavy_idx:
            assert decoded[int(keys[i])] == values[i]

    def test_worst_case_error_below_plain_sketchml(self):
        keys, values, dim = self.make_gradient(seed=3)
        plain = SketchMLCompressor(SketchMLConfig.full())
        hybrid = HeavyHitterSketchMLCompressor(heavy_fraction=0.02)
        _, plain_decoded, plain_msg = plain.roundtrip(keys, values, dim)
        _, hybrid_decoded, hybrid_msg = hybrid.roundtrip(keys, values, dim)
        assert (
            np.abs(hybrid_decoded - values).max()
            < np.abs(plain_decoded - values).max()
        )
        # Size overhead stays modest (the heavy set is 2%).
        assert hybrid_msg.num_bytes < plain_msg.num_bytes * 1.35

    def test_zero_fraction_equals_plain(self):
        keys, values, dim = self.make_gradient(seed=4)
        hybrid = HeavyHitterSketchMLCompressor(heavy_fraction=0.0)
        plain = SketchMLCompressor(SketchMLConfig())
        _, hv, _ = hybrid.roundtrip(keys, values, dim)
        _, pv, _ = plain.roundtrip(keys, values, dim)
        np.testing.assert_allclose(hv, pv)

    def test_full_fraction_is_lossless(self):
        keys, values, dim = self.make_gradient(nnz=500, seed=5)
        hybrid = HeavyHitterSketchMLCompressor(heavy_fraction=1.0)
        out_keys, out_values, _ = hybrid.roundtrip(keys, values, dim)
        np.testing.assert_array_equal(out_keys, keys)
        np.testing.assert_allclose(out_values, values)

    def test_empty_gradient(self):
        comp = HeavyHitterSketchMLCompressor()
        empty = np.asarray([], dtype=np.int64)
        out_keys, out_values, msg = comp.roundtrip(empty, empty.astype(float), 10)
        assert out_keys.size == 0
        assert msg.num_bytes > 0

    def test_signs_preserved(self):
        keys, values, dim = self.make_gradient(seed=6)
        comp = HeavyHitterSketchMLCompressor(heavy_fraction=0.05)
        _, decoded, _ = comp.roundtrip(keys, values, dim)
        assert np.all(np.sign(decoded) == np.sign(values))
