"""Scalar executable spec of the codec kernels (paper §3.2–§3.4).

The package has one numpy kernel per codec operation.  This module keeps
the straight-line transcription of each: fit-then-encode quantization
(§3.2), the per-row
``np.minimum.at`` MinMaxSketch insert, the per-row query and the
mask-loop group partition (§3.3), and per-group delta-binary key coding
(§3.4).  The kernels must agree with it byte for byte, as
:mod:`repro.core.rice` must with ``tests/rice_reference.py``.

:func:`reference_kernels` patches these twins into the production
classes and modules for the duration of a ``with`` block, so a test can
run the whole codec on them and compare the bytes.
"""

import sys
from contextlib import ExitStack, contextmanager, nullcontext
from typing import Iterator, List
from unittest import mock

import numpy as np

from repro import sanitize
from repro.core import delta_encoding
from repro.core.delta_encoding import encode_keys
from repro.core.minmax_sketch import GroupedMinMaxSketch, MinMaxSketch
from repro.core.quantizer import QuantileBucketQuantizer

__all__ = ["reference_kernels", "kernel_path", "KERNEL_PATHS"]


# ---------------------------------------------------------------------------
# §3.2 quantile buckets
# ---------------------------------------------------------------------------
def fit_encode(self, values, pos_sel=None, neg_sel=None):
    """QuantileBucketQuantizer.fit_encode: plain fit, then the
    per-needle searchsorted encode."""
    values = np.asarray(values, dtype=np.float64)
    if neg_sel is None:
        neg_sel = np.flatnonzero(values < 0)
    if pos_sel is None:
        pos_sel = np.flatnonzero(values >= 0)
    self.fit(values)
    pos_enc = (
        self.positive.encode(values.take(pos_sel)) if pos_sel.size else None
    )
    neg_enc = (
        self.negative.encode(-values.take(neg_sel)) if neg_sel.size else None
    )
    return pos_enc, neg_enc


# ---------------------------------------------------------------------------
# §3.3 MinMaxSketch
# ---------------------------------------------------------------------------
def minmax_insert_many(self, keys, indexes):
    """MinMaxSketch.insert_many: one ``np.minimum.at`` scatter per row."""
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
    for row, h in enumerate(self._hashes):
        bins = h(keys)
        np.minimum.at(self._table[row], bins, values)
    self._inserted += keys.size


def minmax_query_many(self, keys, strict=False):
    """MinMaxSketch.query_many: one bin gather per row, then the max."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
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


def partition_flat(self, keys, indexes):
    """GroupedMinMaxSketch.partition_flat: one boolean mask per group."""
    keys = np.asarray(keys, dtype=np.int64)
    indexes = np.asarray(indexes, dtype=np.int64)
    if keys.shape != indexes.shape:
        raise ValueError("keys and indexes must have the same shape")
    groups = self.group_of(indexes)
    offsets = indexes - groups * self.group_width
    chunks_k: List[np.ndarray] = []
    chunks_o: List[np.ndarray] = []
    counts = np.zeros(self.num_groups, dtype=np.int64)
    for g in range(self.num_groups):
        mask = groups == g
        chunks_k.append(keys[mask])
        chunks_o.append(offsets[mask])
        counts[g] = chunks_k[-1].size
    return np.concatenate(chunks_k), np.concatenate(chunks_o), counts


def insert_flat_per_group(self, keys_cat, offs_cat, counts):
    """GroupedMinMaxSketch._insert_flat_batched: one ``insert_group``
    per nonempty group instead of the fused scatter."""
    bounds = np.zeros(self.num_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    for g in range(self.num_groups):
        if counts[g]:
            self.insert_group(
                g,
                keys_cat[bounds[g]:bounds[g + 1]],
                offs_cat[bounds[g]:bounds[g + 1]],
            )


def query_flat_per_group(self, keys_cat, counts, strict=False):
    """GroupedMinMaxSketch.query_flat: one ``query_group`` per nonempty
    group instead of the fused gather."""
    keys_cat = np.asarray(keys_cat, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size != self.num_groups:
        raise ValueError(
            f"expected {self.num_groups} group counts, got {counts.size}"
        )
    if keys_cat.size != int(counts.sum()):
        raise ValueError("counts must sum to keys_cat.size")
    bounds = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return np.concatenate(
        [np.empty(0, dtype=np.int64)]
        + [
            self.query_group(g, keys_cat[bounds[g]:bounds[g + 1]], strict=strict)
            for g in range(counts.size)
            if counts[g]
        ]
    )


# ---------------------------------------------------------------------------
# §3.4 delta-binary keys
# ---------------------------------------------------------------------------
def encode_key_groups(key_groups):
    """encode_key_groups: one :func:`encode_keys` call per group."""
    return [encode_keys(g) for g in key_groups]


def encode_key_groups_flat(concat, sizes):
    """encode_key_groups_flat: slice out each group, encode it alone."""
    sizes = np.asarray(sizes, dtype=np.int64)
    concat = np.asarray(concat, dtype=np.int64)
    if concat.ndim != 1:
        raise ValueError("keys must be a 1-D array")
    if concat.size != int(sizes.sum()):
        raise ValueError("sizes must sum to concat.size")
    bounds = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return [
        encode_keys(concat[bounds[g]:bounds[g + 1]]) for g in range(sizes.size)
    ]


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------
_METHOD_TWINS = (
    (QuantileBucketQuantizer, "fit_encode", fit_encode),
    (MinMaxSketch, "insert_many", minmax_insert_many),
    (MinMaxSketch, "query_many", minmax_query_many),
    (GroupedMinMaxSketch, "partition_flat", partition_flat),
    (GroupedMinMaxSketch, "_insert_flat_batched", insert_flat_per_group),
    (GroupedMinMaxSketch, "query_flat", query_flat_per_group),
)

_FUNCTION_TWINS = (
    ("encode_key_groups", encode_key_groups),
    ("encode_key_groups_flat", encode_key_groups_flat),
    ("decode_key_groups_flat", delta_encoding._decode_key_groups_scalar),
)


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Run the enclosed block on the twins above.

    Methods are patched on their class; each delta-key function is
    patched in every loaded ``repro`` module that imported it by name.
    """
    with ExitStack() as stack:
        for owner, name, twin in _METHOD_TWINS:
            stack.enter_context(mock.patch.object(owner, name, twin))
        for name, twin in _FUNCTION_TWINS:
            original = getattr(delta_encoding, name)
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").split(".")[0] == "repro"
                    and getattr(module, name, None) is original
                ):
                    stack.enter_context(mock.patch.object(module, name, twin))
        yield


#: The two cells of a codec test matrix: ``"scalar"`` runs on the twins
#: above, ``"vectorised"`` on the package's kernels.
KERNEL_PATHS = {"scalar": reference_kernels, "vectorised": nullcontext}


def kernel_path(name: str):
    """A context manager that runs its block on the named path."""
    return KERNEL_PATHS[name]()
