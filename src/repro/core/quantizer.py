"""Quantile-bucket quantification (paper §3.2, with §3.3 Solution 1).

Gradient values are summarised into ``q`` equi-depth buckets (each
bucket holds the same *number* of values, unlike the equi-width buckets
of uniform quantizers such as ZipML).  Each value is then encoded by its
bucket index — one byte for ``q <= 256`` — and decoded back to the
bucket's mean value.

Positive and negative values get **separate** fits and separate
bucket ranges (§3.3 Solution 1), so no bucket ever straddles zero and a
decoded value can never change sign.  Within each sign, bucket indexes
are ordered by *magnitude* (index 0 = bucket closest to zero); this is
the ordering the MinMaxSketch's min-insert / max-query protocol relies
on to guarantee one-sided, decaying error.

The fit is exact, where the paper builds a quantile sketch: the
encoder sorts each sign's magnitudes anyway, so the ``q + 1``
equi-depth splits are one gather from that sorted array (ε = 0, so
§2.3's ε-quantile guarantee holds trivially).  Bucket means are
rounded *toward zero* to float32 values so payload v2 can ship them at
4 bytes each; rounding down keeps every decoded magnitude at or below
the bucket's midpoint ("decayed, never amplified", §3.3) and, being
monotone, keeps index order equal to magnitude order.  A table that
float32 cannot carry (a mean above its range, or a nonzero mean below
its smallest subnormal) keeps its float64 means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["SignedBuckets", "QuantileBucketQuantizer", "exact_quantiles"]


_F32_MAX = float(np.finfo(np.float32).max)


def exact_quantiles(
    values: Sequence[float], phis: Sequence[float], assume_sorted: bool = False
) -> np.ndarray:
    """Exact quantiles by full sort — the O(N log N) brute force of §2.3.

    The codec's bucket fit, and ground truth in tests.  Uses the
    "lower" interpolation so results are actual data points.  Pass
    ``assume_sorted=True`` when the caller already sorted ``values``
    (the quantizer sorts each sign's magnitudes once to encode them, so
    its splits are one gather).
    """
    arr = np.asarray(values, dtype=np.float64)
    if not assume_sorted:
        arr = np.sort(arr)
    if arr.size == 0:
        raise ValueError("cannot take quantiles of an empty sequence")
    phis = np.clip(np.asarray(phis, dtype=np.float64), 0.0, 1.0)
    idx = np.minimum((phis * arr.size).astype(np.int64), arr.size - 1)
    return arr[idx]


@dataclass
class SignedBuckets:
    """Equi-depth buckets for one sign of the gradient values.

    Attributes:
        splits: ``num_buckets + 1`` ascending split values covering the
            magnitude range (always non-negative; these are magnitudes).
            Only the encoder reads them; ``None`` on a table decoded
            from payload v2, which does not ship them.
        means: per-bucket mean magnitude, ``(splits[i] + splits[i+1])/2``
            rounded toward zero to a float32 value (float64 only when
            float32 cannot carry the table; see :func:`_round_means`).
        sign: ``+1.0`` or ``-1.0``; decoded values are ``sign * means``.
    """

    splits: Optional[np.ndarray]
    means: np.ndarray
    sign: float

    @property
    def num_buckets(self) -> int:
        return int(self.means.size)

    def encode(self, magnitudes: np.ndarray) -> np.ndarray:
        """Map magnitudes to bucket indexes (0 = closest to zero)."""
        if self.splits is None:
            raise ValueError(
                "these buckets carry no splits (decoded from payload v2); "
                "only a fitted quantizer can encode"
            )
        if self.num_buckets == 0:
            raise ValueError("cannot encode with zero buckets")
        # searchsorted against interior splits; values at or below the
        # lowest split land in bucket 0, above the top split in the last.
        interior = self.splits[1:-1]
        magnitudes = np.asarray(magnitudes, dtype=np.float64)
        idx = np.searchsorted(interior, magnitudes, side="right")
        return idx.astype(np.int64)

    def decode(self, indexes: np.ndarray) -> np.ndarray:
        """Map bucket indexes back to signed bucket-mean values."""
        indexes = np.clip(np.asarray(indexes, dtype=np.int64), 0, self.num_buckets - 1)
        return self.sign * self.means[indexes]


def _build_buckets(ordered: np.ndarray, num_buckets: int, sign: float) -> SignedBuckets:
    """Fit equi-depth splits for one sign's *ascending* magnitudes.

    Exact quantiles are one gather from the sorted magnitudes (the
    first and last splits are the extremes).
    """
    phis = np.linspace(0.0, 1.0, num_buckets + 1)
    splits = exact_quantiles(ordered, phis, assume_sorted=True)
    means = _round_means(0.5 * (splits[:-1] + splits[1:]))
    return SignedBuckets(splits=splits, means=means, sign=sign)


def _round_means(means: np.ndarray) -> np.ndarray:
    """Non-negative ``means`` rounded toward zero to float32 values.

    Returned as float64 (the decode dtype).  Rounding down, never to
    nearest, keeps each mean at or below its bucket's midpoint, so a
    degenerate bucket cannot decode above the largest input magnitude.
    The table stays float64 when any mean exceeds float32's range or
    a nonzero mean would round to zero (which would break sign
    preservation).
    """
    if means.size == 0 or float(means.max()) > _F32_MAX:
        return means
    narrow = means.astype(np.float32)
    up = narrow > means
    narrow[up] = np.nextafter(narrow[up], np.float32(0.0))
    if np.any((narrow == 0) & (means != 0)):
        return means
    return narrow.astype(np.float64)


def _expand_sorted_indexes(
    ordered: np.ndarray, perm: np.ndarray, buckets: SignedBuckets
) -> np.ndarray:
    """Bucket indexes for magnitudes given their sort permutation.

    For ascending magnitudes the bucket index ``#{k: interior[k] <= x}``
    is a non-decreasing step function, so it can be materialised with
    one tiny searchsorted (one probe per split, not per value) and a
    run-length expansion, then scattered back through ``perm``.  Exactly
    equal to ``buckets.encode`` on the unsorted magnitudes — ties are
    immaterial because tied values get the same bucket either way.
    """
    interior = buckets.splits[1:-1]
    pos_k = np.searchsorted(ordered, interior, side="left")
    reps = np.diff(np.concatenate(([0], pos_k, [ordered.size])))
    out = np.empty(ordered.size, dtype=np.int64)
    out[perm] = np.repeat(np.arange(interior.size + 1, dtype=np.int64), reps)
    return out


class QuantileBucketQuantizer:
    """End-to-end value quantizer: fit → encode to indexes → decode.

    Args:
        num_buckets: total bucket budget ``q`` across both signs
            (default 256 → one byte per encoded value).
        sketch: must be ``"exact"``; ``sketch_size`` and ``seed`` are
            ignored.

    Example:
        >>> rng = np.random.default_rng(0)
        >>> values = rng.laplace(scale=0.01, size=5000)
        >>> quant = QuantileBucketQuantizer(num_buckets=256).fit(values)
        >>> signs, idx = quant.encode(values)
        >>> approx = quant.decode(signs, idx)
        >>> bool(np.all(np.sign(approx[values != 0]) == np.sign(values[values != 0])))
        True
    """

    def __init__(
        self,
        num_buckets: int = 256,
        # The e2e probe passes these three; ROADMAP item 1's benchmark PR removes them.
        sketch: str = "exact",
        sketch_size: int = 128,
        seed: int = 0,
    ) -> None:
        if num_buckets < 2:
            raise ValueError(f"num_buckets must be >= 2, got {num_buckets}")
        if sketch != "exact":
            raise ValueError(f"unknown sketch type {sketch!r} (only 'exact')")
        self.num_buckets = int(num_buckets)
        self.positive: Optional[SignedBuckets] = None
        self.negative: Optional[SignedBuckets] = None

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(self, values: np.ndarray) -> "QuantileBucketQuantizer":
        """Build pos/neg buckets from a gradient's nonzero values.

        The ``q`` bucket budget is split between the signs in proportion
        to their counts (each nonempty sign gets at least one bucket),
        mirroring the paper's two separate quantile sketches.
        Zero-valued entries are treated as positive.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ValueError("cannot fit a quantizer on an empty gradient")
        if not np.all(np.isfinite(values)):
            raise ValueError("gradient values must be finite")
        # Integer-index gathers: flatnonzero + take is several times
        # faster than boolean-mask fancy indexing for large gradients.
        neg_sel = np.flatnonzero(values < 0)
        pos_sel = np.flatnonzero(values >= 0)
        pos = values.take(pos_sel)
        neg = -values.take(neg_sel)
        q_pos, q_neg = self._split_budget(pos.size, neg.size)
        self.positive = (
            _build_buckets(np.sort(pos), q_pos, +1.0) if pos.size else None
        )
        self.negative = (
            _build_buckets(np.sort(neg), q_neg, -1.0) if neg.size else None
        )
        return self

    def fit_encode(
        self,
        values: np.ndarray,
        pos_sel: Optional[np.ndarray] = None,
        neg_sel: Optional[np.ndarray] = None,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Fit and return each sign's bucket indexes as a fit byproduct.

        Fitting already sorts each sign's magnitudes; keeping the sort
        *permutation* lets the bucket index of every fitted value be
        recovered with a run-length expansion instead of a per-value
        binary search, which is the dominant encode cost for large
        gradients.  Returns ``(pos_indexes, neg_indexes)`` aligned with
        ``values[pos_sel]`` / ``-values[neg_sel]`` (``None`` for an
        absent sign), byte-identical to fitting then calling
        :meth:`SignedBuckets.encode`.

        Args:
            values: the gradient values to fit (as :meth:`fit`).
            pos_sel: optional precomputed ``np.flatnonzero(values >= 0)``.
            neg_sel: optional precomputed ``np.flatnonzero(values < 0)``.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ValueError("cannot fit a quantizer on an empty gradient")
        if not np.all(np.isfinite(values)):
            raise ValueError("gradient values must be finite")
        if neg_sel is None:
            neg_sel = np.flatnonzero(values < 0)
        if pos_sel is None:
            pos_sel = np.flatnonzero(values >= 0)
        pos = values.take(pos_sel)
        neg = -values.take(neg_sel)
        q_pos, q_neg = self._split_budget(pos.size, neg.size)
        pos_enc: Optional[np.ndarray] = None
        neg_enc: Optional[np.ndarray] = None
        self.positive = None
        self.negative = None
        if pos.size:
            perm = np.argsort(pos)
            ordered = pos.take(perm)
            self.positive = _build_buckets(ordered, q_pos, +1.0)
            pos_enc = _expand_sorted_indexes(ordered, perm, self.positive)
        if neg.size:
            perm = np.argsort(neg)
            ordered = neg.take(perm)
            self.negative = _build_buckets(ordered, q_neg, -1.0)
            neg_enc = _expand_sorted_indexes(ordered, perm, self.negative)
        return pos_enc, neg_enc

    def _split_budget(self, n_pos: int, n_neg: int) -> Tuple[int, int]:
        total = n_pos + n_neg
        if n_pos == 0:
            return 0, self.num_buckets
        if n_neg == 0:
            return self.num_buckets, 0
        q_pos = int(round(self.num_buckets * n_pos / total))
        q_pos = min(max(q_pos, 1), self.num_buckets - 1)
        return q_pos, self.num_buckets - q_pos

    @property
    def is_fitted(self) -> bool:
        return self.positive is not None or self.negative is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("quantizer must be fit() before encode/decode")

    # ------------------------------------------------------------------
    # encode / decode
    # ------------------------------------------------------------------
    def encode(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Encode values into ``(signs, magnitude-ordered bucket indexes)``.

        Returns:
            ``signs`` — int8 array of {+1, -1};
            ``indexes`` — int64 array of per-sign bucket indexes where 0
            is the bucket nearest zero.
        """
        self._require_fitted()
        values = np.asarray(values, dtype=np.float64)
        signs = np.where(values >= 0, 1, -1).astype(np.int8)
        indexes = np.zeros(values.size, dtype=np.int64)
        pos_mask = signs > 0
        if pos_mask.any():
            if self.positive is None:
                raise ValueError("positive values seen but no positive buckets fit")
            indexes[pos_mask] = self.positive.encode(values[pos_mask])
        neg_mask = ~pos_mask
        if neg_mask.any():
            if self.negative is None:
                raise ValueError("negative values seen but no negative buckets fit")
            indexes[neg_mask] = self.negative.encode(-values[neg_mask])
        return signs, indexes

    def decode(self, signs: np.ndarray, indexes: np.ndarray) -> np.ndarray:
        """Decode ``(signs, indexes)`` back to bucket-mean values."""
        self._require_fitted()
        signs = np.asarray(signs, dtype=np.int64)
        indexes = np.asarray(indexes, dtype=np.int64)
        out = np.zeros(indexes.size, dtype=np.float64)
        pos_mask = signs > 0
        if pos_mask.any():
            if self.positive is None:
                raise ValueError("positive signs seen but no positive buckets fit")
            out[pos_mask] = self.positive.decode(indexes[pos_mask])
        neg_mask = ~pos_mask
        if neg_mask.any():
            if self.negative is None:
                raise ValueError("negative signs seen but no negative buckets fit")
            out[neg_mask] = self.negative.decode(indexes[neg_mask])
        return out

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round-trip helper: encode then decode (fit must have run)."""
        signs, indexes = self.encode(values)
        return self.decode(signs, indexes)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def buckets_for_sign(self, sign: int) -> SignedBuckets:
        """The :class:`SignedBuckets` for ``sign`` (+1 or -1)."""
        buckets = self.positive if sign > 0 else self.negative
        if buckets is None:
            raise ValueError(f"no buckets fit for sign {sign}")
        return buckets

    @property
    def total_buckets(self) -> int:
        total = 0
        if self.positive is not None:
            total += self.positive.num_buckets
        if self.negative is not None:
            total += self.negative.num_buckets
        return total

    def variance_bound(self, values: np.ndarray) -> float:
        """Theorem A.2's bound ``d/(4q) * (phi_min^2 + phi_max^2)``."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return 0.0
        phi_min = float(values.min())
        phi_max = float(values.max())
        return values.size / (4.0 * self.num_buckets) * (phi_min**2 + phi_max**2)

    def __repr__(self) -> str:
        return f"QuantileBucketQuantizer(q={self.num_buckets}, fitted={self.is_fitted})"
