"""Tests for Count-Min and Count Sketch."""

import numpy as np
import pytest

from repro.sketch.frequency import CountMinSketch, CountSketch


class TestCountMin:
    def test_never_underestimates(self):
        """The defining one-sided guarantee of Count-Min (§2.4)."""
        rng = np.random.default_rng(0)
        keys = rng.zipf(1.5, size=20_000) % 1_000
        cm = CountMinSketch(num_rows=4, num_bins=512, seed=1)
        cm.insert_many(keys)
        true_counts = np.bincount(keys, minlength=1_000)
        for key in range(0, 1_000, 37):
            assert cm.query(key) >= true_counts[key]

    def test_error_bound_from_sizing(self):
        epsilon, delta = 0.01, 0.01
        cm = CountMinSketch.from_error_bounds(epsilon, delta, seed=2)
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 5_000, size=50_000)
        cm.insert_many(keys)
        true_counts = np.bincount(keys, minlength=5_000)
        sample = rng.integers(0, 5_000, size=200)
        overshoots = [cm.query(int(k)) - true_counts[k] for k in sample]
        violations = sum(o > epsilon * cm.total_count for o in overshoots)
        assert violations <= max(2, delta * len(sample) * 5)

    def test_from_error_bounds_validation(self):
        with pytest.raises(ValueError):
            CountMinSketch.from_error_bounds(0.0, 0.5)
        with pytest.raises(ValueError):
            CountMinSketch.from_error_bounds(0.5, 1.5)

    def test_query_many_matches_query(self):
        cm = CountMinSketch(num_rows=3, num_bins=128, seed=3)
        keys = np.asarray([1, 1, 2, 3, 3, 3])
        cm.insert_many(keys)
        batch = cm.query_many([1, 2, 3, 4])
        singles = [cm.query(k) for k in [1, 2, 3, 4]]
        assert batch.tolist() == singles

    def test_insert_with_count(self):
        cm = CountMinSketch(num_rows=3, num_bins=128, seed=4)
        cm.insert(7, count=5)
        assert cm.query(7) >= 5
        assert cm.total_count == 5

    def test_merge(self):
        a = CountMinSketch(num_rows=3, num_bins=128, seed=5)
        b = CountMinSketch(num_rows=3, num_bins=128, seed=5)
        a.insert_many([1] * 10)
        b.insert_many([1] * 7 + [2] * 3)
        a.merge(b)
        assert a.query(1) >= 17
        assert a.total_count == 20

    def test_merge_incompatible(self):
        a = CountMinSketch(num_rows=3, num_bins=128)
        b = CountMinSketch(num_rows=4, num_bins=128)
        with pytest.raises(ValueError):
            a.merge(b)
        with pytest.raises(TypeError):
            a.merge(object())

    def test_size_bytes(self):
        cm = CountMinSketch(num_rows=2, num_bins=100)
        assert cm.size_bytes == 2 * 100 * 8  # int64 bins

    def test_empty_queries(self):
        cm = CountMinSketch(num_rows=2, num_bins=64, seed=0)
        assert cm.query_many([]).size == 0
        cm.insert_many([])
        assert cm.total_count == 0


class TestCountSketch:
    def test_roughly_unbiased(self):
        """Count Sketch errors are two-sided but centred near zero."""
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 2_000, size=40_000)
        cs = CountSketch(num_rows=5, num_bins=512, seed=1)
        cs.insert_many(keys)
        true_counts = np.bincount(keys, minlength=2_000)
        sample = rng.integers(0, 2_000, size=300)
        errors = np.asarray([cs.query(int(k)) - true_counts[k] for k in sample])
        # Mean error near zero (unbiased), and both signs occur.
        assert abs(errors.mean()) < 5
        assert (errors > 0).any() and (errors < 0).any()

    def test_exact_when_no_collisions(self):
        cs = CountSketch(num_rows=5, num_bins=4_096, seed=2)
        cs.insert(42, count=9)
        assert cs.query(42) == 9

    def test_query_many(self):
        cs = CountSketch(num_rows=3, num_bins=256, seed=3)
        cs.insert_many([5] * 4 + [6] * 2)
        batch = cs.query_many([5, 6])
        assert batch.tolist() == [cs.query(5), cs.query(6)]

    def test_merge_and_validation(self):
        a = CountSketch(num_rows=3, num_bins=128, seed=4)
        b = CountSketch(num_rows=3, num_bins=128, seed=4)
        a.insert_many([1] * 5)
        b.insert_many([1] * 5)
        a.merge(b)
        assert a.query(1) == 10
        with pytest.raises(ValueError):
            a.merge(CountSketch(num_rows=4, num_bins=128))
        with pytest.raises(TypeError):
            a.merge("nope")
