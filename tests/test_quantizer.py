"""Tests for quantile-bucket quantification (§3.2 + §3.3 Solution 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantizer import (
    QuantileBucketQuantizer,
    SignedBuckets,
    exact_quantiles,
)


def laplace_values(n=5_000, scale=0.01, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.laplace(scale=scale, size=n)
    values[values == 0.0] = scale / 100
    return values


class TestExactQuantiles:
    def test_known_values(self):
        values = list(range(10))
        result = exact_quantiles(values, [0.0, 0.5, 1.0])
        assert result[0] == 0
        assert result[1] == 5
        assert result[2] == 9  # clipped to the last element

    def test_returns_data_points(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=100)
        for phi in (0.1, 0.33, 0.77):
            assert exact_quantiles(values, [phi])[0] in values

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            exact_quantiles([], [0.5])

    def test_phis_clipped(self):
        result = exact_quantiles([1.0, 2.0, 3.0], [-0.5, 1.5])
        assert result[0] == 1.0
        assert result[1] == 3.0

    def test_single_value(self):
        result = exact_quantiles([42.0], [0.0, 0.5, 1.0])
        assert np.all(result == 42.0)


class TestFit:
    def test_requires_fit_before_encode(self):
        quant = QuantileBucketQuantizer()
        with pytest.raises(RuntimeError, match="fit"):
            quant.encode(np.asarray([0.1]))
        with pytest.raises(RuntimeError, match="fit"):
            quant.decode(np.asarray([1]), np.asarray([0]))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            QuantileBucketQuantizer().fit(np.asarray([]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            QuantileBucketQuantizer().fit(np.asarray([1.0, np.inf]))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            QuantileBucketQuantizer(num_buckets=1)
        for sketch in ("kll", "hdr-histogram"):
            with pytest.raises(ValueError, match="exact"):
                QuantileBucketQuantizer(sketch=sketch)

    def test_bucket_budget_split_by_counts(self):
        rng = np.random.default_rng(1)
        values = np.concatenate(
            [rng.uniform(0.001, 1, size=9_000), -rng.uniform(0.001, 1, size=1_000)]
        )
        quant = QuantileBucketQuantizer(num_buckets=100).fit(values)
        assert quant.positive.num_buckets == pytest.approx(90, abs=3)
        assert quant.negative.num_buckets == pytest.approx(10, abs=3)
        assert quant.total_buckets == 100

    def test_single_sign_gets_all_buckets(self):
        values = np.linspace(0.01, 1.0, 1_000)
        quant = QuantileBucketQuantizer(num_buckets=64).fit(values)
        assert quant.positive.num_buckets == 64
        assert quant.negative is None


class TestRoundtrip:
    def test_sign_never_flips(self):
        """§3.3 Solution 1: pos/neg separation prevents reversed gradients."""
        values = laplace_values()
        quant = QuantileBucketQuantizer(num_buckets=64).fit(values)
        decoded = quant.quantize(values)
        nonzero = values != 0
        assert np.all(np.sign(decoded[nonzero]) == np.sign(values[nonzero]))

    def test_equi_depth_buckets(self):
        """Each bucket should receive roughly the same number of values."""
        values = laplace_values(n=20_000)
        quant = QuantileBucketQuantizer(num_buckets=32).fit(values)
        _, indexes = quant.encode(values[values > 0])
        counts = np.bincount(indexes, minlength=quant.positive.num_buckets)
        expected = counts.sum() / counts.size
        assert counts.max() < 3 * expected

    def test_indexes_ordered_by_magnitude(self):
        """Index 0 must be the bucket nearest zero for both signs."""
        values = laplace_values()
        quant = QuantileBucketQuantizer(num_buckets=64).fit(values)
        signs, indexes = quant.encode(values)
        for sign in (1, -1):
            mask = signs == sign
            mags = np.abs(values[mask])
            idx = indexes[mask]
            # Average magnitude must increase with bucket index.
            top = mags[idx >= idx.max() - 2].mean()
            bottom = mags[idx <= 2].mean()
            assert top > bottom

    def test_decode_is_bucket_mean(self):
        values = np.asarray([0.1, 0.2, 0.3, 0.4])
        quant = QuantileBucketQuantizer(num_buckets=2).fit(values)
        decoded = quant.quantize(values)
        assert np.all(decoded > 0)
        assert len(np.unique(decoded)) <= 2

    def test_means_round_toward_zero_to_float32(self):
        # float32(0.1) is just above 0.1: rounding to nearest would
        # decode a bucket of 0.1s above the largest input.
        quant = QuantileBucketQuantizer(num_buckets=4).fit(np.full(50, 0.1))
        means = quant.positive.means
        assert np.all((0 < means) & (means < 0.1))
        assert np.array_equal(means.astype(np.float32), means)

    @pytest.mark.parametrize("magnitude", [1e-300, 1e300])
    def test_means_float32_cannot_carry_stay_float64(self, magnitude):
        quant = QuantileBucketQuantizer(num_buckets=4).fit(np.full(50, magnitude))
        assert np.array_equal(quant.positive.means, np.full(4, magnitude))

    def test_quantization_error_shrinks_with_buckets(self):
        values = laplace_values(n=20_000)
        errors = []
        for q in (8, 32, 128):
            quant = QuantileBucketQuantizer(num_buckets=q).fit(values)
            decoded = quant.quantize(values)
            errors.append(np.mean((decoded - values) ** 2))
        assert errors[0] > errors[1] > errors[2]

    def test_all_negative_values(self):
        values = -np.abs(laplace_values())
        quant = QuantileBucketQuantizer(num_buckets=32).fit(values)
        decoded = quant.quantize(values)
        assert np.all(decoded < 0)

    def test_zero_treated_as_positive(self):
        values = np.asarray([0.0, 0.5, -0.5, 1.0])
        quant = QuantileBucketQuantizer(num_buckets=4).fit(values)
        signs, _ = quant.encode(values)
        assert signs[0] == 1

    def test_encode_unseen_sign_raises(self):
        quant = QuantileBucketQuantizer(num_buckets=8).fit(
            np.asarray([0.1, 0.2, 0.3])
        )
        with pytest.raises(ValueError, match="negative"):
            quant.encode(np.asarray([-0.1]))


class TestVarianceBound:
    """Theorem A.2: E||g - ĝ||² <= d/(4q) (phi_min² + phi_max²)."""

    @pytest.mark.parametrize("q", [16, 64, 256])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bound_holds(self, q, seed):
        values = laplace_values(n=4_000, seed=seed)
        quant = QuantileBucketQuantizer(num_buckets=q).fit(values)
        decoded = quant.quantize(values)
        actual = float(np.sum((decoded - values) ** 2))
        assert actual <= quant.variance_bound(values) * 1.0000001

    def test_bound_formula(self):
        values = np.asarray([-0.5, 0.1, 0.3])
        quant = QuantileBucketQuantizer(num_buckets=10)
        expected = 3 / 40 * (0.5**2 + 0.3**2)
        assert quant.variance_bound(values) == pytest.approx(expected)

    def test_beats_uniform_near_zero(self):
        """The motivation for Fig. 4: uniform (equi-width) quantization
        collapses the near-zero mass of a gradient onto a single level
        ("methods such as ZipML quantify them to zero"), while
        equi-depth buckets keep resolving it."""
        values = laplace_values(n=20_000, scale=0.01, seed=9)
        q = 16
        quant = QuantileBucketQuantizer(num_buckets=q).fit(values)
        quantile_decoded = quant.quantize(values)
        # Uniform (equi-width) quantization over the same range.
        low, high = values.min(), values.max()
        width = (high - low) / q
        uniform_decoded = low + (np.floor((values - low) / width) + 0.5) * width
        # Typical (median) relative error on the small half of the
        # gradient mass: uniform rounds those values to the dominant
        # level (≈100% relative error); equi-depth keeps resolving them.
        small = np.abs(values) < np.median(np.abs(values))
        rel_quantile = np.median(
            np.abs((quantile_decoded[small] - values[small]) / values[small])
        )
        rel_uniform = np.median(
            np.abs((uniform_decoded[small] - values[small]) / values[small])
        )
        assert rel_quantile < rel_uniform / 2
        # Uniform collapses a large share of values onto one level.
        dominant_level_share = (
            np.bincount(
                np.floor((values - low) / width).astype(int), minlength=q
            ).max()
            / values.size
        )
        assert dominant_level_share > 0.4


class TestSignedBuckets:
    def test_decode_clips_out_of_range(self):
        buckets = SignedBuckets(
            splits=np.asarray([0.0, 0.5, 1.0]),
            means=np.asarray([0.25, 0.75]),
            sign=-1.0,
        )
        decoded = buckets.decode(np.asarray([-5, 0, 1, 99]))
        assert decoded.tolist() == [-0.25, -0.25, -0.75, -0.75]


@given(
    n=st.integers(min_value=2, max_value=400),
    q=st.integers(min_value=2, max_value=64),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=40, deadline=None)
def test_roundtrip_properties(n, q, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=0.1, size=n)
    values[values == 0.0] = 0.05
    quant = QuantileBucketQuantizer(num_buckets=q).fit(values)
    decoded = quant.quantize(values)
    # Signs preserved, magnitudes within the fitted range.
    assert np.all(np.sign(decoded) == np.sign(values))
    assert np.all(np.abs(decoded) <= np.abs(values).max() + 1e-12)


@given(
    n=st.integers(min_value=1, max_value=5_000),
    q=st.integers(min_value=2, max_value=256),
    distinct=st.sampled_from([1, 2, 7, None]),
    signs=st.sampled_from(["mixed", "pos", "neg"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_fit_encode_matches_fit_then_encode(n, q, distinct, signs, seed):
    """The encoder's fused fit (argsort, then run-length indexes) gives
    the tables and indexes of a plain fit followed by a per-value
    search, at every size from one value up and under heavy ties
    (``distinct`` magnitudes; ``None`` = continuous)."""
    rng = np.random.default_rng(seed)
    if distinct is None:
        values = rng.laplace(scale=0.01, size=n)
    else:
        levels = rng.uniform(1e-4, 1.0, size=distinct)
        values = rng.choice(levels, size=n) * rng.choice([-1.0, 1.0], size=n)
    if signs == "pos":
        values = np.abs(values)
    elif signs == "neg":
        values = -np.abs(values) - 1e-6
    fused = QuantileBucketQuantizer(num_buckets=q)
    pos_enc, neg_enc = fused.fit_encode(values)
    plain = QuantileBucketQuantizer(num_buckets=q).fit(values)
    for sign, enc, got, want in (
        (1, pos_enc, fused.positive, plain.positive),
        (-1, neg_enc, fused.negative, plain.negative),
    ):
        if want is None:
            assert got is None and enc is None
            continue
        np.testing.assert_array_equal(got.splits, want.splits)
        np.testing.assert_array_equal(got.means, want.means)
        magnitudes = sign * values[values >= 0 if sign > 0 else values < 0]
        np.testing.assert_array_equal(enc, want.encode(magnitudes))
