"""MinMaxSketch: the paper's novel sketch for bucket indexes (§3.3).

Structure: ``s`` hash rows of ``t`` bins each, like a Count-Min sketch,
but storing *bucket indexes* rather than counters, with a different
collision protocol:

* **Insert (Min)** — a bin keeps the *minimum* index ever written to it.
  Indexes are ordered by gradient magnitude (0 = bucket nearest zero),
  so collisions can only pull a stored index toward zero, never away.
* **Query (Max)** — of the ``s`` candidate bins for a key, return the
  *maximum*: since every candidate is a lower bound on the true index,
  the maximum is the tightest lower bound.

Consequently the decode error is strictly one-sided: the recovered
index is never larger than the true one, so decoded gradients are
*decayed*, never amplified — the property SGD tolerates (and Adam
compensates for), unlike the overestimation of additive sketches.

:class:`GroupedMinMaxSketch` implements §3.3 Solution 2: buckets are
split into ``r`` contiguous groups with one MinMaxSketch per group,
capping the worst-case index error at ``q / r``.  Keys are partitioned
per group (the decoder learns group membership from the per-group key
lists, matching the space analysis in §A.3).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import kernels, sanitize
from ..sketch.hashing import build_hash_family, hash_all_grouped

__all__ = ["MinMaxSketch", "GroupedMinMaxSketch", "GROUP_SEED_STRIDE"]

#: Group ``g`` of a :class:`GroupedMinMaxSketch` hashes with seed
#: ``seed + GROUP_SEED_STRIDE * g``.  Payload v2 ships only the group-0
#: seed and rebuilds the others with this stride, so it is part of the
#: wire format.
GROUP_SEED_STRIDE = 1009


def _dtype_for_range(index_range: int) -> np.dtype:
    """Smallest unsigned dtype that can hold indexes in [0, index_range]."""
    if index_range < 2**8:
        return np.dtype(np.uint8)
    if index_range < 2**16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


class MinMaxSketch:
    """A single min-insert / max-query sketch over bucket indexes.

    Args:
        num_rows: number of hash tables ``s`` (paper default 2).
        num_bins: bins per table ``t`` (paper default d/5).
        index_range: exclusive upper bound on stored indexes; sets the
            bin dtype and the empty-bin sentinel.
        seed: hash family seed (encoder and decoder must agree).
        hash_family: see :func:`repro.sketch.hashing.build_hash_family`.
        table: an already-filled ``(num_rows, num_bins)`` bin table to
            adopt as is (the wire decoder's path) instead of starting
            from an all-empty one.
    """

    def __init__(
        self,
        num_rows: int = 2,
        num_bins: int = 1024,
        index_range: int = 256,
        seed: int = 0,
        hash_family: str = "multiply_shift",
        table: Optional[np.ndarray] = None,
    ) -> None:
        if num_rows <= 0 or num_bins <= 0:
            raise ValueError("num_rows and num_bins must be positive")
        if index_range <= 0:
            raise ValueError("index_range must be positive")
        self.num_rows = int(num_rows)
        self.num_bins = int(num_bins)
        self.index_range = int(index_range)
        self._dtype = _dtype_for_range(index_range)
        # Sentinel above any legal index: min-insert overwrites it on
        # first touch, and bins never touched are never queried (every
        # queried key was inserted, so all its bins were written).
        self._sentinel = np.iinfo(self._dtype).max
        if self.index_range > self._sentinel:
            raise ValueError("index_range leaves no room for the empty sentinel")
        # Recorded so the wire format can rebuild identical hash rows.
        self._master_seed = int(seed)
        self._hash_family_name = hash_family
        self._hashes = build_hash_family(num_rows, num_bins, seed, hash_family)
        if table is None:
            table = np.full((num_rows, num_bins), self._sentinel, dtype=self._dtype)
        elif table.shape != (self.num_rows, self.num_bins):
            raise ValueError(
                f"table shape {table.shape} is not {num_rows}x{num_bins}"
            )
        self._table = table
        self._inserted = 0

    # ------------------------------------------------------------------
    # insert / query
    # ------------------------------------------------------------------
    def insert(self, key: int, index: int) -> None:
        """Insert one ``(key, bucket_index)`` pair (Min protocol)."""
        self.insert_many(
            np.asarray([key], dtype=np.int64), np.asarray([index], dtype=np.int64)
        )

    def insert_many(self, keys: np.ndarray, indexes: np.ndarray) -> None:
        """Vectorised insert of parallel ``keys`` / ``indexes`` arrays."""
        keys = np.asarray(keys, dtype=np.int64)
        indexes = np.asarray(indexes, dtype=np.int64)
        if keys.shape != indexes.shape:
            raise ValueError("keys and indexes must have the same shape")
        if keys.size == 0:
            return
        if indexes.min() < 0 or indexes.max() >= self.index_range:
            raise ValueError(
                f"indexes must lie in [0, {self.index_range}); "
                f"got [{indexes.min()}, {indexes.max()}]"
            )
        values = indexes.astype(self._dtype)
        if kernels.vectorised_enabled():
            # Fused kernel: hash every row at once, then a single
            # segmented min over the flattened (row, bin) space.  A
            # stable argsort groups duplicate bins together and
            # ``np.minimum.reduceat`` takes each group's min in one
            # pass — min is order-free, so this is bit-identical to
            # the scalar scatter loop below, but avoids ``ufunc.at``
            # (which dispatches per element) and the per-row Python
            # loop.
            bins = self._hashes.hash_all(keys)  # (rows, n)
            flat = (
                bins
                + (np.arange(self.num_rows, dtype=np.int64) * self.num_bins)[:, None]
            ).ravel()
            flat_values = np.broadcast_to(values, bins.shape).ravel()
            order = np.argsort(flat, kind="stable")
            sorted_bins = flat[order]
            sorted_values = flat_values[order]
            starts = np.empty(0, dtype=np.int64)
            if sorted_bins.size:
                boundaries = np.flatnonzero(sorted_bins[1:] != sorted_bins[:-1]) + 1
                starts = np.concatenate(([0], boundaries))
            segment_min = np.minimum.reduceat(sorted_values, starts)
            table_flat = self._table.reshape(-1)
            touched = sorted_bins[starts]
            table_flat[touched] = np.minimum(table_flat[touched], segment_min)
        else:
            for row, h in enumerate(self._hashes):
                bins = h(keys)
                np.minimum.at(self._table[row], bins, values)
        self._inserted += keys.size

    def query(self, key: int, strict: bool = False) -> int:
        """Query one key (Max protocol)."""
        return int(
            self.query_many(np.asarray([key], dtype=np.int64), strict=strict)[0]
        )

    def query_many(self, keys: np.ndarray, strict: bool = False) -> np.ndarray:
        """Vectorised query; returns int64 bucket indexes.

        For keys that were inserted, the result is guaranteed to be
        ``<=`` the true index (one-sided error).  Querying a key that
        was never inserted returns whatever its bins hold (possibly the
        sentinel, clipped to ``index_range - 1``).

        With ``strict=True`` (the sanitizer's decode path) a pre-clip
        candidate at or above ``index_range`` — a never-inserted key or
        a corrupted table — raises
        :class:`~repro.sanitize.SanitizerError` instead of being
        silently clipped.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return np.empty(0, dtype=np.int64)
        if kernels.vectorised_enabled():
            bins = self._hashes.hash_all(keys)  # (rows, n)
            candidates = self._table.reshape(-1)[
                bins
                + (np.arange(self.num_rows, dtype=np.int64) * self.num_bins)[:, None]
            ]
        else:
            candidates = np.empty((self.num_rows, keys.size), dtype=self._dtype)
            for row, h in enumerate(self._hashes):
                candidates[row] = self._table[row, h(keys)]
        result = candidates.max(axis=0).astype(np.int64)
        if strict:
            bad = result >= self.index_range
            if bad.any():
                offset = int(np.flatnonzero(bad)[0])
                raise sanitize.SanitizerError(
                    sanitize.INVARIANT_INDEX_RANGE,
                    f"stored bin value {int(result[offset])} at or above "
                    f"index_range {self.index_range} (never-inserted key "
                    "or corrupted table)",
                    offset=offset,
                )
        return np.minimum(result, self.index_range - 1)

    # ------------------------------------------------------------------
    # merge / accounting
    # ------------------------------------------------------------------
    def merge(self, other: "MinMaxSketch") -> "MinMaxSketch":
        """Merge by elementwise minimum (consistent with min-insert)."""
        if not isinstance(other, MinMaxSketch):
            raise TypeError(f"cannot merge with {type(other).__name__}")
        if (self.num_rows, self.num_bins, self.index_range) != (
            other.num_rows,
            other.num_bins,
            other.index_range,
        ):
            raise ValueError("sketch dimensions differ; cannot merge")
        np.minimum(self._table, other._table, out=self._table)
        self._inserted += other._inserted
        return self

    @property
    def inserted_count(self) -> int:
        return self._inserted

    @property
    def size_bytes(self) -> int:
        """Wire size: ``s * t * bytes_per_bin`` (§3.5)."""
        return self._table.nbytes

    @property
    def fill_ratio(self) -> float:
        """Fraction of bins that have been written at least once."""
        return float((self._table != self._sentinel).mean())

    def __repr__(self) -> str:
        return (
            f"MinMaxSketch(rows={self.num_rows}, bins={self.num_bins}, "
            f"range={self.index_range}, inserted={self._inserted})"
        )


class GroupedMinMaxSketch:
    """``r`` MinMaxSketches over contiguous bucket-index groups (§3.3).

    Bucket indexes in ``[0, q)`` are split into ``r`` groups of width
    ``ceil(q / r)``; group ``g`` covers ``[g*width, (g+1)*width)`` and
    owns its own MinMaxSketch storing the *within-group offset*, so the
    worst-case decoded index error drops from ``q`` to ``q / r``.

    The caller partitions keys by group via :meth:`partition` before
    encoding (the per-group key lists travel alongside the sketches, as
    in §A.3's space analysis), and the decoder passes each group's keys
    to :meth:`query_group`.

    Args:
        num_groups: ``r`` (paper default 8).
        index_range: total index range ``q``.
        num_rows: rows per group sketch (paper default 2).
        total_bins: total bin budget ``t`` spread across the ``r`` group
            sketches in proportion to nothing — equally, matching the
            paper's fixed ``s × t / r`` per-group sizing.
        seed: base seed; group ``g`` uses ``seed + GROUP_SEED_STRIDE * g``.
    """

    def __init__(
        self,
        num_groups: int = 8,
        index_range: int = 256,
        num_rows: int = 2,
        total_bins: int = 8192,
        seed: int = 0,
        hash_family: str = "multiply_shift",
    ) -> None:
        if num_groups <= 0:
            raise ValueError("num_groups must be positive")
        if index_range < num_groups:
            num_groups = index_range  # never more groups than indexes
        self.num_groups = int(num_groups)
        self.index_range = int(index_range)
        self.group_width = -(-self.index_range // self.num_groups)  # ceil div
        bins_per_group = max(1, int(total_bins) // self.num_groups)
        self._sketches: List[MinMaxSketch] = [
            MinMaxSketch(
                num_rows=num_rows,
                num_bins=bins_per_group,
                index_range=self.group_width,
                seed=seed + GROUP_SEED_STRIDE * g,
                hash_family=hash_family,
            )
            for g in range(self.num_groups)
        ]

    # ------------------------------------------------------------------
    def group_of(self, indexes: np.ndarray) -> np.ndarray:
        """Group id of each bucket index."""
        indexes = np.asarray(indexes, dtype=np.int64)
        if indexes.size and (indexes.min() < 0 or indexes.max() >= self.index_range):
            raise ValueError(f"indexes must lie in [0, {self.index_range})")
        width = self.group_width
        if width & (width - 1) == 0:
            return indexes >> (width.bit_length() - 1)
        return indexes // width

    def partition_flat(
        self, keys: np.ndarray, indexes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group-sort ``(keys, indexes)`` into flat per-group runs.

        Returns ``(sorted_keys, sorted_offsets, counts)`` where group
        ``g`` occupies ``counts[g]`` contiguous entries (ascending key
        order within each group, as the delta-binary key encoder
        requires).  This is the zero-copy form of :meth:`partition` —
        the insert and key-encode kernels consume it directly without
        slicing into per-group arrays and concatenating them back.
        """
        keys = np.asarray(keys, dtype=np.int64)
        indexes = np.asarray(indexes, dtype=np.int64)
        if keys.shape != indexes.shape:
            raise ValueError("keys and indexes must have the same shape")
        groups = self.group_of(indexes)
        width = self.group_width
        if width & (width - 1) == 0:
            offsets = indexes & (width - 1)
        else:
            offsets = indexes - groups * width
        if kernels.vectorised_enabled():
            # One stable sort by group id replaces num_groups boolean
            # mask passes; stability preserves the ascending key order
            # within each group, so the runs match the mask variant
            # element for element.  Group ids that fit a byte take the
            # uint8 radix path, which is several times faster than the
            # int64 sort.
            if self.num_groups <= 256:
                order = np.argsort(groups.astype(np.uint8), kind="stable")
            else:
                order = np.argsort(groups, kind="stable")
            bounds = np.searchsorted(
                groups.take(order), np.arange(self.num_groups + 1, dtype=np.int64)
            )
            return keys.take(order), offsets.take(order), np.diff(bounds)
        chunks_k: List[np.ndarray] = []
        chunks_o: List[np.ndarray] = []
        counts = np.zeros(self.num_groups, dtype=np.int64)
        for g in range(self.num_groups):
            mask = groups == g
            chunks_k.append(keys[mask])
            chunks_o.append(offsets[mask])
            counts[g] = chunks_k[-1].size
        if not chunks_k:
            return keys, offsets, counts
        return np.concatenate(chunks_k), np.concatenate(chunks_o), counts

    def partition(
        self, keys: np.ndarray, indexes: np.ndarray
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Split ``(keys, indexes)`` into per-group (keys, offsets) pairs.

        Returned lists preserve ascending key order within each group
        (required by the delta-binary key encoder).  Groups with no
        members yield empty arrays.
        """
        sorted_keys, sorted_offsets, counts = self.partition_flat(keys, indexes)
        bounds = np.zeros(self.num_groups + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        return [
            (sorted_keys[bounds[g]:bounds[g + 1]], sorted_offsets[bounds[g]:bounds[g + 1]])
            for g in range(self.num_groups)
        ]

    def insert_group(self, group: int, keys: np.ndarray, offsets: np.ndarray) -> None:
        """Insert one group's keys with within-group offsets."""
        self._sketches[group].insert_many(keys, offsets)

    def insert_partitioned(
        self, partitions: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> None:
        """Insert the output of :meth:`partition`."""
        if len(partitions) != self.num_groups:
            raise ValueError(
                f"expected {self.num_groups} partitions, got {len(partitions)}"
            )
        if kernels.vectorised_enabled() and 1 < self.group_width <= 255:
            key_chunks: List[np.ndarray] = []
            offset_chunks: List[np.ndarray] = []
            counts = np.zeros(self.num_groups, dtype=np.int64)
            for g, (keys, offsets) in enumerate(partitions):
                keys = np.asarray(keys, dtype=np.int64)
                offsets = np.asarray(offsets, dtype=np.int64)
                if keys.shape != offsets.shape:
                    raise ValueError("keys and indexes must have the same shape")
                if keys.size == 0:
                    continue
                counts[g] = keys.size
                key_chunks.append(keys)
                offset_chunks.append(offsets)
            if not key_chunks:
                return
            self._insert_flat_batched(
                np.concatenate(key_chunks), np.concatenate(offset_chunks), counts
            )
            return
        for g, (keys, offsets) in enumerate(partitions):
            if keys.size:
                self.insert_group(g, keys, offsets)

    def insert_flat(
        self, sorted_keys: np.ndarray, sorted_offsets: np.ndarray, counts: np.ndarray
    ) -> None:
        """Insert the flat output of :meth:`partition_flat` directly.

        Skips the per-group slice/re-concatenate round trip of
        :meth:`partition` + :meth:`insert_partitioned`; this is the hot
        encode path.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size != self.num_groups:
            raise ValueError(
                f"expected {self.num_groups} group counts, got {counts.size}"
            )
        if sorted_keys.shape != sorted_offsets.shape:
            raise ValueError("keys and indexes must have the same shape")
        if sorted_keys.size != int(counts.sum()):
            raise ValueError("counts must sum to sorted_keys.size")
        if sorted_keys.size == 0:
            return
        if kernels.vectorised_enabled() and 1 < self.group_width <= 255:
            self._insert_flat_batched(sorted_keys, sorted_offsets, counts)
            return
        bounds = np.zeros(self.num_groups + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        for g in range(self.num_groups):
            if counts[g]:
                self.insert_group(
                    g,
                    sorted_keys[bounds[g]:bounds[g + 1]],
                    sorted_offsets[bounds[g]:bounds[g + 1]],
                )

    def _insert_flat_batched(
        self, keys_cat: np.ndarray, offs_cat: np.ndarray, counts: np.ndarray
    ) -> None:
        """Scatter-min one flat batch into every group's table at once.

        Offsets span only ``group_width`` distinct values, so the
        scatter-min can run as one fused kernel: hash all group runs at
        once, order the entries by descending offset, and let plain
        fancy assignment finish — the last (smallest) write to each bin
        wins, exactly the Min protocol.
        """
        sketches = self._sketches
        ref = sketches[0]
        rows = ref.num_rows
        bins = ref.num_bins
        num = self.num_groups
        # One range check over the concatenation instead of two small
        # reductions per group.
        if offs_cat.min() < 0 or offs_cat.max() >= ref.index_range:
            raise ValueError(
                f"indexes must lie in [0, {ref.index_range}); "
                f"got [{offs_cat.min()}, {offs_cat.max()}]"
            )
        fresh = [False] * num
        for g in range(num):
            if counts[g]:
                sk = sketches[g]
                fresh[g] = sk._inserted == 0
                sk._inserted += int(counts[g])
        group_ids = np.repeat(np.arange(num, dtype=np.int64), counts)
        hashed = hash_all_grouped(
            [sk._hashes for sk in sketches], keys_cat, counts
        )  # (rows, n)
        # Offset every entry into its group's slice of one flat scratch
        # table laid out as num_groups x num_rows x num_bins.
        hashed += (group_ids * (rows * bins))[None, :]
        for row in range(1, rows):
            hashed[row] += row * bins if row > 1 else bins
        # Stable uint8 argsort is a radix sort; reversing it orders the
        # entries by descending offset so the smallest offset is written
        # last into every bin.  Rows scatter into disjoint slices of the
        # scratch table, so each row can be written separately with a
        # contiguous take instead of one transposed fancy gather.
        order = np.argsort(offs_cat.astype(np.uint8), kind="stable")[::-1]
        vals_sorted = offs_cat.take(order).astype(ref._dtype)
        scratch = np.full(num * rows * bins, ref._sentinel, dtype=ref._dtype)
        for row in range(rows):
            scratch[hashed[row].take(order)] = vals_sorted
        span = rows * bins
        for g in range(num):
            if counts[g]:
                sk = sketches[g]
                part = scratch[g * span:(g + 1) * span].reshape(rows, bins)
                if fresh[g]:
                    # An untouched table is all-sentinel, so the min
                    # merge is a plain copy.
                    np.copyto(sk._table, part)
                else:
                    np.minimum(sk._table, part, out=sk._table)

    def query_group(
        self, group: int, keys: np.ndarray, strict: bool = False
    ) -> np.ndarray:
        """Recover global bucket indexes for one group's keys.

        ``strict`` forwards to :meth:`MinMaxSketch.query_many`: the
        sanitizer's decode path rejects pre-clip overflows instead of
        clipping them.
        """
        offsets = self._sketches[group].query_many(keys, strict=strict)
        return np.minimum(
            offsets + group * self.group_width, self.index_range - 1
        )

    def _fusable(self) -> bool:
        """True when one gather over the stacked tables can serve every group.

        Read off the sketches themselves (a deserialized part carries no
        config): the group sketches must agree on rows, bins, index
        range, cell dtype and hash family.  Every encoder emits this
        shape; a hand-built or forged part may not.
        """
        return len(
            {
                (
                    sk.num_rows, sk.num_bins, sk.index_range,
                    sk._table.dtype, sk._hash_family_name,
                )
                for sk in self._sketches
            }
        ) == 1

    def query_flat(
        self, keys_cat: np.ndarray, counts: np.ndarray, strict: bool = False
    ) -> np.ndarray:
        """Recover global bucket indexes for group-concatenated keys.

        ``keys_cat`` holds every group's keys back to back (``counts[g]``
        of them for group ``g``) and the result equals
        ``np.concatenate([query_group(g, keys_g, strict) ...])`` — this
        is the hot decode path.  When the group sketches agree on shape
        and hash family all groups are hashed as one grid and read with
        one gather over the stacked tables; otherwise the groups are
        walked one by one.  ``strict`` raises the same
        :class:`~repro.sanitize.SanitizerError` (first offending group,
        offset within that group) :meth:`query_group` would.
        """
        keys_cat = np.asarray(keys_cat, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size != self.num_groups:
            raise ValueError(
                f"expected {self.num_groups} group counts, got {counts.size}"
            )
        if keys_cat.size != int(counts.sum()):
            raise ValueError("counts must sum to keys_cat.size")
        if keys_cat.size == 0:
            return np.empty(0, dtype=np.int64)
        if not (kernels.vectorised_enabled() and self._fusable()):
            bounds = np.zeros(counts.size + 1, dtype=np.int64)
            np.cumsum(counts, out=bounds[1:])
            return np.concatenate(
                [
                    self.query_group(g, keys_cat[bounds[g]:bounds[g + 1]], strict=strict)
                    for g in range(counts.size)
                    if counts[g]
                ]
            )
        sketches = self._sketches
        ref = sketches[0]
        group_range = np.arange(self.num_groups, dtype=np.int64)
        cells = hash_all_grouped(
            [sk._hashes for sk in sketches], keys_cat, counts
        )  # (rows, n)
        # Address one flat groups x rows x bins table.
        cells += np.repeat(group_range * (ref.num_rows * ref.num_bins), counts)
        cells += (np.arange(ref.num_rows, dtype=np.int64) * ref.num_bins)[:, None]
        stacked = np.concatenate([sk._table.reshape(-1) for sk in sketches])
        result = stacked.take(cells).max(axis=0).astype(np.int64)
        if strict:
            bad = result >= ref.index_range
            if bad.any():
                first = int(np.flatnonzero(bad)[0])
                group_start = np.cumsum(counts) - counts
                group = int(np.searchsorted(group_start, first, side="right")) - 1
                raise sanitize.SanitizerError(
                    sanitize.INVARIANT_INDEX_RANGE,
                    f"stored bin value {int(result[first])} at or above "
                    f"index_range {ref.index_range} (never-inserted key "
                    "or corrupted table)",
                    offset=first - int(group_start[group]),
                )
        # query_group clips to the group sketch's range, shifts into the
        # group band, then clips to the global range; folded here into
        # one per-group cap.
        base = group_range * self.group_width
        cap = np.minimum(base + (ref.index_range - 1), self.index_range - 1)
        result += np.repeat(base, counts)
        return np.minimum(result, np.repeat(cap, counts), out=result)

    # ------------------------------------------------------------------
    @property
    def sketches(self) -> Sequence[MinMaxSketch]:
        return tuple(self._sketches)

    @property
    def size_bytes(self) -> int:
        return sum(s.size_bytes for s in self._sketches)

    @property
    def max_index_error(self) -> int:
        """Worst-case decoded index error: ``group_width - 1`` (= q/r)."""
        return self.group_width - 1

    def __repr__(self) -> str:
        return (
            f"GroupedMinMaxSketch(groups={self.num_groups}, "
            f"range={self.index_range}, width={self.group_width})"
        )
