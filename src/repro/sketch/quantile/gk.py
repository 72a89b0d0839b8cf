"""Greenwald–Khanna ε-approximate quantile summary (SIGMOD 2001).

This is the "GK algorithm" the paper cites as the classical quantile
sketch (§2.3): a summary ``S(n, k)`` of tuples ``(v, g, Δ)`` kept in
value order, where for tuple ``i``

* ``v_i`` is a value seen in the stream,
* ``g_i = rmin(v_i) - rmin(v_{i-1})``,
* ``Δ_i = rmax(v_i) - rmin(v_i)``,

and the invariant ``g_i + Δ_i <= 2 ε n`` guarantees any rank query is
answered within ``ε n``.

The implementation follows the original paper: inserts place a new tuple
with ``Δ = floor(2 ε n) `` (0 for stream extremes), and a periodic
COMPRESS pass merges tuples whose combined uncertainty still fits the
invariant.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .base import QuantileSketch, as_float_array

__all__ = ["GKSummary", "GKTuple"]


@dataclass
class GKTuple:
    """One summary tuple ``(value, g, delta)`` of the GK structure."""

    value: float
    g: int
    delta: int


class GKSummary(QuantileSketch):
    """Greenwald–Khanna summary with rank error at most ``epsilon * n``.

    Args:
        epsilon: target rank-error fraction.  Space is
            O((1/ε) log(εn)); ``epsilon=0.01`` keeps a few hundred
            tuples for millions of inserts.

    Example:
        >>> gk = GKSummary(epsilon=0.01)
        >>> gk.insert_many(range(10000))
        >>> abs(gk.query(0.5) - 5000) < 200
        True
    """

    def __init__(self, epsilon: float = 0.01) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        self.epsilon = float(epsilon)
        self._tuples: List[GKTuple] = []
        self._values: List[float] = []  # parallel sorted list for bisect
        self._count = 0
        self._inserts_since_compress = 0
        # COMPRESS every ~1/(2ε) inserts, as in the original paper.
        self._compress_interval = max(int(1.0 / (2.0 * self.epsilon)), 1)
        # Lazily rebuilt query acceleration arrays (cumulative g and
        # per-tuple delta); any mutation drops them.
        self._rank_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _invalidate(self) -> None:
        self._rank_cache = None

    def _rank_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(cumulative g, delta)`` int64 arrays over the tuples."""
        if self._rank_cache is None:
            cum_g = np.cumsum(
                np.fromiter(
                    (t.g for t in self._tuples), dtype=np.int64, count=len(self._tuples)
                )
            )
            deltas = np.fromiter(
                (t.delta for t in self._tuples), dtype=np.int64, count=len(self._tuples)
            )
            self._rank_cache = (cum_g, deltas)
        return self._rank_cache

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, value: float) -> None:
        value = float(value)
        if np.isnan(value):
            raise ValueError("cannot insert NaN into a quantile summary")
        idx = bisect.bisect_left(self._values, value)
        if idx == 0 or idx == len(self._tuples):
            # new minimum or maximum: exact rank, delta = 0
            delta = 0
        else:
            delta = int(2.0 * self.epsilon * self._count)
        self._tuples.insert(idx, GKTuple(value, 1, delta))
        self._values.insert(idx, value)
        self._count += 1
        self._invalidate()
        self._inserts_since_compress += 1
        if self._inserts_since_compress >= self._compress_interval:
            self._compress()
            self._inserts_since_compress = 0

    def insert_many(self, values: Iterable[float]) -> None:
        arr = as_float_array(values)
        if arr.size == 0:
            return
        if np.isnan(arr).any():
            raise ValueError("cannot insert NaN into a quantile summary")
        if self._count == 0:
            self.insert_sorted(np.sort(arr))
            return
        for value in arr:
            self.insert(float(value))

    def insert_sorted(self, values: np.ndarray) -> None:
        """Batch-build from an ascending array: tuple array + one COMPRESS.

        Only valid as a bulk load into an empty summary (the quantizer's
        fit path); a non-empty summary falls back to per-value inserts.
        Every value enters with exact rank (``g = 1``, ``Δ = 0``) and a
        single COMPRESS pass restores the ``2 ε n`` space bound, so the
        result is at least as accurate as the incremental stream build.
        """
        arr = as_float_array(values)
        if arr.size == 0:
            return
        if self._count != 0:
            for value in arr:
                self.insert(float(value))
            return
        if np.isnan(arr).any():
            raise ValueError("cannot insert NaN into a quantile summary")
        n = int(arr.size)
        self._count = n
        self._inserts_since_compress = 0
        self._invalidate()
        threshold = int(2.0 * self.epsilon * n)
        # Closed form of the single COMPRESS pass over uniform tuples
        # (g = 1, Δ = 0): the greedy fold keeps the first tuple, then
        # every ``threshold``-th tuple (each absorbing the fold weight
        # of its predecessors), then the last tuple with the leftover
        # weight: bit-identical to building every tuple and running
        # :meth:`_compress` (``tests/kernel_reference.py``).
        if n < 3 or threshold < 2:
            kept = np.arange(n, dtype=np.int64)
            gs = np.ones(n, dtype=np.int64)
        else:
            interior = np.arange(threshold, n - 1, threshold, dtype=np.int64)
            kept = np.concatenate(([0], interior, [n - 1]))
            last_g = n - 1 - (int(interior[-1]) if interior.size else 0)
            gs = np.concatenate(
                ([1], np.full(interior.size, threshold, dtype=np.int64), [last_g])
            )
        kept_values = arr[kept]
        self._tuples = [
            GKTuple(float(v), int(g), 0) for v, g in zip(kept_values, gs)
        ]
        self._values = kept_values.tolist()

    def _compress(self) -> None:
        """Merge adjacent tuples whose combined error fits ``2 ε n``."""
        self._invalidate()
        if len(self._tuples) < 3:
            return
        threshold = int(2.0 * self.epsilon * self._count)
        merged: List[GKTuple] = [self._tuples[0]]
        # Never merge into the last tuple's slot from the right; iterate
        # middle tuples and fold them into their successor when allowed.
        for i in range(1, len(self._tuples) - 1):
            cur = self._tuples[i]
            nxt = self._tuples[i + 1]
            if cur.g + nxt.g + nxt.delta <= threshold:
                nxt.g += cur.g  # fold cur into nxt
            else:
                merged.append(cur)
        merged.append(self._tuples[-1])
        self._tuples = merged
        self._values = [t.value for t in merged]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, phi: float) -> float:
        if self._count == 0:
            raise ValueError("cannot query an empty GKSummary")
        phi = min(max(float(phi), 0.0), 1.0)
        target_rank = phi * self._count
        bound = self.epsilon * self._count
        cum_g, deltas = self._rank_arrays()
        # The answer is the first tuple satisfying both rank conditions
        # (the tuple scan in ``tests/kernel_reference.py``); the rmin
        # condition is monotone (true on a suffix), so locate that suffix
        # by bisection, then nudge with the scan's exact predicate to
        # stay bit-compatible with it.
        i = int(np.searchsorted(cum_g, target_rank - bound, side="left"))
        while i > 0 and target_rank - float(cum_g[i - 1]) <= bound:
            i -= 1
        while i < len(cum_g) and target_rank - float(cum_g[i]) > bound:
            i += 1
        for j in range(i, len(cum_g)):
            if float(cum_g[j] + deltas[j]) - target_rank <= bound:
                return self._tuples[j].value
        return self._tuples[-1].value

    def rank(self, value: float) -> int:
        """Approximate rank (number of inserted items ≤ ``value``)."""
        # Tuples are value-ordered, so the scan's break point is a plain
        # bisection over the parallel ``_values`` list.
        j = bisect.bisect_right(self._values, value)
        if j == 0:
            return 0
        return int(self._rank_arrays()[0][j - 1])

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def merge(self, other: "GKSummary") -> "GKSummary":
        """Merge another GK summary into this one.

        Uses the standard merge-then-compress construction: the tuple
        lists are interleaved in value order (g and delta carry over),
        after which a COMPRESS pass restores the space bound.  The
        resulting rank error is bounded by the sum of the two errors.
        """
        if not isinstance(other, GKSummary):
            raise TypeError(f"cannot merge GKSummary with {type(other).__name__}")
        if other._count == 0:
            return self
        if self._count == 0:
            self._tuples = [GKTuple(t.value, t.g, t.delta) for t in other._tuples]
            self._values = list(other._values)
            self._count = other._count
            self._invalidate()
            return self
        combined: List[GKTuple] = []
        i = j = 0
        a, b = self._tuples, other._tuples
        while i < len(a) and j < len(b):
            if a[i].value <= b[j].value:
                combined.append(a[i])
                i += 1
            else:
                combined.append(GKTuple(b[j].value, b[j].g, b[j].delta))
                j += 1
        combined.extend(a[i:])
        combined.extend(GKTuple(t.value, t.g, t.delta) for t in b[j:])
        self._tuples = combined
        self._count += other._count
        self._values = [t.value for t in combined]
        self._compress()
        return self

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def num_tuples(self) -> int:
        """Current size of the summary (``k`` in ``S(n, k)``)."""
        return len(self._tuples)

    def __repr__(self) -> str:
        return (
            f"GKSummary(epsilon={self.epsilon}, n={self._count}, "
            f"tuples={self.num_tuples})"
        )
