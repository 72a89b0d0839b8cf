"""KLL-style mergeable quantile sketch (the "Yahoo DataSketches" stand-in).

The paper uses Yahoo DataSketches' quantile sketch, whose modern
implementation is the KLL sketch (Karnin–Lang–Liberty, FOCS 2016).  This
module implements the randomized compaction scheme from that paper:

* a hierarchy of levels, level ``h`` holding items each representing
  ``2**h`` stream items;
* level capacities decaying geometrically (``k * c**depth``) with the
  top levels pinned at capacity ``k``;
* a compaction step that sorts a full level and promotes a random
  half (even- or odd-indexed items) to the level above.

With size parameter ``k = 256`` the sketch answers quantile queries
within ~1% rank error with high probability — the "99% correctness when
m = 256" contract quoted in §2.3.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from .base import QuantileSketch, as_float_array

__all__ = ["KLLSketch"]

_CAPACITY_DECAY = 2.0 / 3.0
_MIN_LEVEL_CAPACITY = 2


class KLLSketch(QuantileSketch):
    """Randomized mergeable quantile sketch with O(k log log n) space.

    Args:
        k: size parameter controlling accuracy; rank error is roughly
            ``O(1/k)``.  The paper's default sketch size of 128/256 maps
            directly onto this parameter.
        seed: PRNG seed for the randomized compaction coin flips.  Two
            sketches built with the same seed over the same stream are
            identical, which keeps tests and worker/driver pairs
            deterministic.

    Example:
        >>> sk = KLLSketch(k=256, seed=7)
        >>> sk.insert_many(np.random.default_rng(0).normal(size=100_000))
        >>> abs(sk.query(0.5)) < 0.02
        True
    """

    def __init__(self, k: int = 256, seed: int = 0) -> None:
        if k < 8:
            raise ValueError(f"k must be >= 8, got {k}")
        self.k = int(k)
        self._rng = np.random.default_rng(seed)
        self._levels: List[List[float]] = [[]]
        self._count = 0
        self._min = np.inf
        self._max = -np.inf

    # ------------------------------------------------------------------
    # capacity schedule
    # ------------------------------------------------------------------
    def _capacity(self, level: int, num_levels: Optional[int] = None) -> int:
        """Capacity of ``level``: decays geometrically from the top."""
        if num_levels is None:
            num_levels = len(self._levels)
        depth = num_levels - level - 1
        cap = int(np.ceil(self.k * (_CAPACITY_DECAY ** depth)))
        return max(cap, _MIN_LEVEL_CAPACITY)

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, value: float) -> None:
        value = float(value)
        if np.isnan(value):
            raise ValueError("cannot insert NaN into a quantile sketch")
        self._levels[0].append(value)
        self._count += 1
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if len(self._levels[0]) >= self._capacity(0):
            self._compress()

    def insert_many(self, values: Iterable[float]) -> None:
        arr = as_float_array(values)
        if arr.size == 0:
            return
        if np.isnan(arr).any():
            raise ValueError("cannot insert NaN into a quantile sketch")
        if self._count == 0:
            self.insert_sorted(np.sort(arr))
            return
        self._count += arr.size
        self._min = min(self._min, float(arr.min()))
        self._max = max(self._max, float(arr.max()))
        # Bulk path: feed level 0 in large chunks (compaction handles any
        # over-full level in one cascade), keeping the Python-level loop
        # short even when the level-0 capacity has decayed to its floor.
        chunk = max(self._capacity(0), 4 * self.k)
        for chunk_start in range(0, arr.size, chunk):
            self._levels[0].extend(arr[chunk_start:chunk_start + chunk].tolist())
            if len(self._levels[0]) >= self._capacity(0):
                self._compress()

    def insert_sorted(self, values: np.ndarray) -> None:
        """Batch-build from an ascending array: pour into level 0, cascade.

        Only a bulk load into an *empty* sketch takes the array fast
        path (the quantizer's fit case); otherwise this defers to
        :meth:`insert_many`.  The cascade runs the same compaction
        control flow as :meth:`_compress` on a list level 0 — one coin
        flip per compacted level, in the same order — so the retained
        items and therefore every query are bit-identical to it.
        """
        arr = as_float_array(values)
        if arr.size == 0:
            return
        if self._count != 0:
            self.insert_many(arr)
            return
        if np.isnan(arr).any():
            raise ValueError("cannot insert NaN into a quantile sketch")
        self._count = int(arr.size)
        self._min = min(self._min, float(arr[0]))
        self._max = max(self._max, float(arr[-1]))
        # Array mirror of _compress: same per-level capacities (computed
        # against the growing level count), same odd-straggler rule,
        # same promotion slicing.  During this single ascending cascade
        # every level only ever holds an ascending array (the sorted
        # input, or one promotion's even/odd slice of one), so the sort
        # _compress performs before compacting is a no-op here and is
        # skipped — the retained items are bit-identical.
        levels: List[np.ndarray] = [arr]
        level = 0
        while level < len(levels):
            if levels[level].size < self._capacity(level, len(levels)):
                level += 1
                continue
            items = levels[level]
            if items.size % 2 == 1:
                levels[level] = items[-1:]
                items = items[:-1]
            else:
                levels[level] = np.empty(0, dtype=np.float64)
            offset = int(self._rng.integers(0, 2))
            promoted = items[offset::2]
            if level + 1 == len(levels):
                levels.append(np.empty(0, dtype=np.float64))
            levels[level + 1] = np.concatenate([levels[level + 1], promoted])
            level += 1
        self._levels = [lvl.tolist() for lvl in levels]

    def _compress(self) -> None:
        """Compact the lowest over-full level, cascading upward."""
        level = 0
        while level < len(self._levels):
            if len(self._levels[level]) < self._capacity(level):
                level += 1
                continue
            items = sorted(self._levels[level])
            # Compact an even count only; an odd straggler stays at this
            # level so total weight is preserved exactly.
            if len(items) % 2 == 1:
                self._levels[level] = [items[-1]]
                items = items[:-1]
            else:
                self._levels[level] = []
            offset = int(self._rng.integers(0, 2))
            promoted = items[offset::2]
            if level + 1 == len(self._levels):
                self._levels.append([])
            self._levels[level + 1].extend(promoted)
            level += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _weighted_items(self) -> Tuple[np.ndarray, np.ndarray]:
        """All retained items with their level weights, sorted by value."""
        values: List[float] = []
        weights: List[int] = []
        for level, items in enumerate(self._levels):
            if items:
                values.extend(items)
                weights.extend([1 << level] * len(items))
        if not values:
            return np.empty(0), np.empty(0, dtype=np.int64)
        order = np.argsort(values, kind="stable")
        return (
            np.asarray(values, dtype=np.float64)[order],
            np.asarray(weights, dtype=np.int64)[order],
        )

    def query(self, phi: float) -> float:
        if self._count == 0:
            raise ValueError("cannot query an empty KLLSketch")
        phi = min(max(float(phi), 0.0), 1.0)
        if phi <= 0.0:
            return self._min
        if phi >= 1.0:
            return self._max
        values, weights = self._weighted_items()
        cum = np.cumsum(weights)
        target = phi * cum[-1]
        idx = int(np.searchsorted(cum, target, side="left"))
        idx = min(idx, values.size - 1)
        return float(values[idx])

    def query_many(self, phis) -> List[float]:
        if self._count == 0:
            raise ValueError("cannot query an empty KLLSketch")
        values, weights = self._weighted_items()
        cum = np.cumsum(weights)
        phi_arr = np.clip(np.asarray(list(phis), dtype=np.float64), 0.0, 1.0)
        idx = np.minimum(
            np.searchsorted(cum, phi_arr * cum[-1], side="left"), values.size - 1
        )
        out_arr = values[idx]
        out_arr[phi_arr <= 0.0] = self._min
        out_arr[phi_arr >= 1.0] = self._max
        return out_arr.tolist()

    def rank(self, value: float) -> float:
        """Approximate fraction of inserted items ≤ ``value``."""
        if self._count == 0:
            raise ValueError("cannot query an empty KLLSketch")
        values, weights = self._weighted_items()
        total = int(weights.sum())
        below = int(weights[values <= value].sum())
        return below / total

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def merge(self, other: "KLLSketch") -> "KLLSketch":
        """Merge another KLL sketch into this one (level-wise concat)."""
        if not isinstance(other, KLLSketch):
            raise TypeError(f"cannot merge KLLSketch with {type(other).__name__}")
        if other._count == 0:
            return self
        while len(self._levels) < len(other._levels):
            self._levels.append([])
        for level, items in enumerate(other._levels):
            self._levels[level].extend(items)
        self._count += other._count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._compress()
        return self

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def retained_items(self) -> int:
        """Number of items currently held across all levels."""
        return sum(len(level) for level in self._levels)

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    @property
    def min_value(self) -> float:
        return self._min

    @property
    def max_value(self) -> float:
        return self._max

    def __repr__(self) -> str:
        return (
            f"KLLSketch(k={self.k}, n={self._count}, "
            f"retained={self.retained_items}, levels={self.num_levels})"
        )
