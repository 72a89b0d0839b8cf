"""Quantile-bucket quantification (paper §3.2, with §3.3 Solution 1).

A quantile sketch summarises gradient values into ``q`` equi-depth
buckets (each bucket holds the same *number* of values, unlike the
equi-width buckets of uniform quantizers such as ZipML).  Each value is
then encoded by its bucket index — one byte for ``q <= 256`` — and
decoded back to the bucket's mean value.

Positive and negative values get **separate** sketches and separate
bucket ranges (§3.3 Solution 1), so no bucket ever straddles zero and a
decoded value can never change sign.  Within each sign, bucket indexes
are ordered by *magnitude* (index 0 = bucket closest to zero); this is
the ordering the MinMaxSketch's min-insert / max-query protocol relies
on to guarantee one-sided, decaying error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import kernels
from ..sketch.quantile import GKSummary, KLLSketch, TDigest, exact_quantiles

__all__ = ["SignedBuckets", "QuantileBucketQuantizer"]


_SKETCH_BUILDERS = {
    "kll": lambda size, seed: KLLSketch(k=max(int(size), 8), seed=seed),
    "gk": lambda size, seed: GKSummary(epsilon=1.0 / max(int(size), 8)),
    "tdigest": lambda size, seed: TDigest(delta=max(float(size), 10.0)),
}


@dataclass
class SignedBuckets:
    """Equi-depth buckets for one sign of the gradient values.

    Attributes:
        splits: ``num_buckets + 1`` ascending split values covering the
            magnitude range (always non-negative; these are magnitudes).
            Only the encoder reads them; ``None`` on a table decoded
            from payload v2, which does not ship them.
        means: per-bucket mean magnitude, ``(splits[i] + splits[i+1])/2``.
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

    @property
    def payload_bytes(self) -> int:
        """Wire size of the bucket metadata (means, as 8-byte floats)."""
        return 8 * self.num_buckets


def _build_buckets(
    ordered: np.ndarray,
    num_buckets: int,
    sign: float,
    sketch: str,
    sketch_size: int,
    seed: int,
) -> SignedBuckets:
    """Fit equi-depth splits for one sign's *ascending* magnitudes."""
    phis = np.linspace(0.0, 1.0, num_buckets + 1)
    if sketch == "exact" or ordered.size <= 4 * num_buckets:
        # For small inputs the sketch machinery is pure overhead and its
        # rank error could exceed a bucket; fall back to exact quantiles.
        splits = exact_quantiles(ordered, phis, assume_sorted=True)
        splits[-1] = float(ordered[-1])
    else:
        sk = _SKETCH_BUILDERS[sketch](sketch_size, seed)
        sk.insert_sorted(ordered)
        splits = np.asarray(sk.query_many(phis), dtype=np.float64)
        splits[0] = float(ordered[0])
        splits[-1] = float(ordered[-1])
    # Monotonicity can be violated by sketch noise on heavy ties; repair.
    splits = np.maximum.accumulate(splits)
    means = 0.5 * (splits[:-1] + splits[1:])
    return SignedBuckets(splits=splits, means=means, sign=sign)


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
        sketch: ``"kll"`` (default, the DataSketches stand-in), ``"gk"``
            (Greenwald–Khanna), ``"tdigest"``, or ``"exact"`` (full
            sort; for tests).
        sketch_size: the sketch's size parameter (KLL ``k`` or GK
            ``1/epsilon``); paper default 128.
        seed: PRNG seed for randomized sketches.

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
        sketch: str = "kll",
        sketch_size: int = 128,
        seed: int = 0,
    ) -> None:
        if num_buckets < 2:
            raise ValueError(f"num_buckets must be >= 2, got {num_buckets}")
        if sketch not in ("kll", "gk", "tdigest", "exact"):
            raise ValueError(f"unknown sketch type {sketch!r}")
        self.num_buckets = int(num_buckets)
        self.sketch = sketch
        self.sketch_size = int(sketch_size)
        self.seed = int(seed)
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
            _build_buckets(
                np.sort(pos), q_pos, +1.0, self.sketch, self.sketch_size, self.seed
            )
            if pos.size
            else None
        )
        self.negative = (
            _build_buckets(
                np.sort(neg), q_neg, -1.0, self.sketch, self.sketch_size, self.seed + 1
            )
            if neg.size
            else None
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
        if not kernels.vectorised_enabled():
            # Reference path: plain fit, then the per-needle searchsorted
            # encode.  The vectorised branch below must match it byte
            # for byte.
            self.fit(values)
            pos_enc = (
                self.positive.encode(values.take(pos_sel)) if pos_sel.size else None
            )
            neg_enc = (
                self.negative.encode(-values.take(neg_sel)) if neg_sel.size else None
            )
            return pos_enc, neg_enc
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
            self.positive = _build_buckets(
                ordered, q_pos, +1.0, self.sketch, self.sketch_size, self.seed
            )
            pos_enc = _expand_sorted_indexes(ordered, perm, self.positive)
        if neg.size:
            perm = np.argsort(neg)
            ordered = neg.take(perm)
            self.negative = _build_buckets(
                ordered, q_neg, -1.0, self.sketch, self.sketch_size, self.seed + 1
            )
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

    @property
    def payload_bytes(self) -> int:
        """Bytes of bucket metadata shipped with each message (8q, §3.5)."""
        total = 0
        if self.positive is not None:
            total += self.positive.payload_bytes
        if self.negative is not None:
            total += self.negative.payload_bytes
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
        return (
            f"QuantileBucketQuantizer(q={self.num_buckets}, sketch={self.sketch!r}, "
            f"fitted={self.is_fitted})"
        )
