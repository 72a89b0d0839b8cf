"""Tests for the QSGD compressor."""

import numpy as np
import pytest

from repro.compression import QSGDCompressor, make_compressor


def make_gradient(nnz=2_000, dimension=50_000, seed=0):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
    values = rng.laplace(scale=0.01, size=nnz)
    values[values == 0.0] = 1e-5
    return keys, values, dimension


class TestQSGD:
    def test_registered(self):
        assert isinstance(make_compressor("qsgd"), QSGDCompressor)

    def test_validation(self):
        with pytest.raises(ValueError):
            QSGDCompressor(num_levels=0)
        with pytest.raises(ValueError):
            QSGDCompressor(num_levels=100_000)

    def test_keys_lossless_and_signs_preserved(self):
        keys, values, dim = make_gradient(seed=1)
        comp = QSGDCompressor(num_levels=255, seed=0)
        out_keys, out_values, _ = comp.roundtrip(keys, values, dim)
        np.testing.assert_array_equal(out_keys, keys)
        nonzero = out_values != 0
        assert np.all(np.sign(out_values[nonzero]) == np.sign(values[nonzero]))

    def test_unbiasedness(self):
        """E[decode(encode(g))] = g over the rounding randomness."""
        keys, values, dim = make_gradient(nnz=200, seed=2)
        comp = QSGDCompressor(num_levels=15, seed=7)
        total = np.zeros_like(values)
        trials = 400
        for _ in range(trials):
            _, decoded, _ = comp.roundtrip(keys, values, dim)
            total += decoded
        estimate = total / trials
        norm = np.linalg.norm(values)
        np.testing.assert_allclose(estimate, values, atol=norm / 15 / 4)

    def test_magnitudes_bounded_by_norm(self):
        keys, values, dim = make_gradient(seed=3)
        comp = QSGDCompressor(num_levels=255, seed=1)
        _, decoded, _ = comp.roundtrip(keys, values, dim)
        assert np.abs(decoded).max() <= np.linalg.norm(values) + 1e-12

    def test_byte_accounting(self):
        keys, values, dim = make_gradient(nnz=800, seed=4)
        msg = QSGDCompressor(num_levels=255).compress(keys, values, dim)
        assert msg.breakdown["keys"] == 3_200
        assert msg.breakdown["values"] == 800 + 100  # levels + sign bits
        assert msg.num_bytes == sum(msg.breakdown.values())

    def test_16bit_levels(self):
        keys, values, dim = make_gradient(nnz=100, seed=5)
        comp = QSGDCompressor(num_levels=65_535, seed=0)
        _, decoded, msg = comp.roundtrip(keys, values, dim)
        norm = np.linalg.norm(values)
        assert np.abs(decoded - values).max() <= norm / 65_535 + 1e-12

    def test_empty_and_zero_gradients(self):
        comp = QSGDCompressor()
        empty = np.asarray([], dtype=np.int64)
        out_keys, out_values, _ = comp.roundtrip(empty, empty.astype(float), 10)
        assert out_keys.size == 0
        zeros = np.zeros(3)
        out_keys, out_values, _ = comp.roundtrip(np.arange(3), zeros, 10)
        np.testing.assert_array_equal(out_values, zeros)

    def test_variance_bound_of_corollary_a3(self):
        """Empirical QSGD variance obeys min(d/s^2, sqrt(d)/s)||g||^2."""
        rng = np.random.default_rng(6)
        d, s = 5_000, 255
        keys = np.arange(d)
        values = rng.laplace(scale=0.01, size=d)
        comp = QSGDCompressor(num_levels=s, seed=2)
        errors = []
        for _ in range(20):
            _, decoded, _ = comp.roundtrip(keys, values, d)
            errors.append(np.sum((decoded - values) ** 2))
        bound = min(d / s**2, np.sqrt(d) / s) * float(np.dot(values, values))
        assert np.mean(errors) <= bound
