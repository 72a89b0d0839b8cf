"""Dynamic delta-binary encoding of gradient keys (paper §3.4).

Gradient keys are non-repetitive, ascending integers that can be large
(tens of millions of dimensions) while the gaps between neighbours are
small.  The codec therefore stores:

1. **Delta encoding** — the first key verbatim, then each key as its
   increment over the previous key.
2. **Binary encoding with byte flags** — each delta is written with the
   least number of bytes that holds it (1 byte for [0, 255], 2 for
   [256, 65535], …) and a 2-bit *byte flag* records that width.  Flags
   are packed four to a byte.

The codec is exactly invertible (keys must decode losslessly or SGD
would update wrong model dimensions, §3.4), and the measured cost is
~1.25–1.5 bytes per key including flags, matching §A.3.

Wire layout::

    [count: uint32 LE] [flags: ceil(count/4) bytes] [payload: var-width deltas]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "encode_keys",
    "encode_key_groups",
    "encode_key_groups_flat",
    "decode_keys",
    "decode_key_groups_flat",
    "delta_key_stats",
    "DeltaKeyStats",
    "FLAG_BITS_PER_KEY",
]

#: 2-bit flag per key, as in Figure 7.
FLAG_BITS_PER_KEY = 2

_HEADER_BYTES = 4
_MAX_KEY = 2**32 - 1
# Flag byte -> the four byte widths it packs (little-end first), stored
# as one 4-byte word so a single take expands a whole flag section.
_FLAG_BYTE_WIDTHS = (
    (
        (
            np.arange(256, dtype=np.uint8)[:, None]
            >> np.asarray([0, 2, 4, 6], dtype=np.uint8)
        )
        & np.uint8(0x3)
    )
    + np.uint8(1)
).view("<u4").ravel()


@dataclass(frozen=True)
class DeltaKeyStats:
    """Accounting record for one encoded key block."""

    num_keys: int
    payload_bytes: int
    flag_bytes: int
    header_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.payload_bytes + self.flag_bytes + self.header_bytes

    @property
    def bytes_per_key(self) -> float:
        """Average cost per key including flags (the paper's ~1.27)."""
        if self.num_keys == 0:
            return 0.0
        return (self.payload_bytes + self.flag_bytes) / self.num_keys


def _byte_widths(deltas: np.ndarray) -> np.ndarray:
    """Least number of bytes (1..4) needed to hold each delta.

    Summing the three threshold comparisons gives the same widths as
    masked assignment but with plain sequential passes instead of
    boolean scatter stores.
    """
    widths = np.ones(deltas.size, dtype=np.int64)
    np.add(widths, deltas > np.uint64(0xFF), out=widths, casting="unsafe")
    np.add(widths, deltas > np.uint64(0xFFFF), out=widths, casting="unsafe")
    np.add(widths, deltas > np.uint64(0xFFFFFF), out=widths, casting="unsafe")
    return widths


def _validate_keys(keys: np.ndarray) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 1:
        raise ValueError("keys must be a 1-D array")
    if keys.size == 0:
        return keys
    if keys.min() < 0 or keys.max() > _MAX_KEY:
        raise ValueError("keys must lie in [0, 2**32 - 1]")
    if keys.size > 1 and np.any(np.diff(keys) <= 0):
        raise ValueError("keys must be strictly ascending (sorted, no repeats)")
    return keys


def encode_keys(keys: np.ndarray) -> bytes:
    """Encode strictly ascending non-negative keys into the wire format.

    Args:
        keys: 1-D strictly ascending int array, values < 2**32.

    Returns:
        The encoded byte string (see module docstring for layout).
    """
    keys = _validate_keys(keys)
    n = keys.size
    header = np.asarray(n, dtype="<u4").tobytes()
    if n == 0:
        return header
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = keys[0]
    deltas[1:] = np.diff(keys).astype(np.uint64)
    widths = _byte_widths(deltas)

    # Pack 2-bit flags (width - 1), four keys per byte, little-end first.
    flags = (widths - 1).astype(np.uint8)
    flag_bytes = np.zeros((n + 3) // 4, dtype=np.uint8)
    for slot in range(4):
        chunk = flags[slot::4]
        flag_bytes[: chunk.size] |= chunk << (2 * slot)

    # Variable-width little-endian payload: scatter each delta's bytes.
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(widths[:-1], out=offsets[1:])
    payload = np.zeros(int(widths.sum()), dtype=np.uint8)
    for byte_pos in range(4):
        mask = widths > byte_pos
        if not mask.any():
            break
        payload[offsets[mask] + byte_pos] = (
            deltas[mask] >> np.uint64(8 * byte_pos)
        ) & np.uint64(0xFF)
    return header + flag_bytes.tobytes() + payload.tobytes()


def encode_key_groups(key_groups: Sequence[np.ndarray]) -> List[bytes]:
    """Encode several ascending key arrays into one blob per group.

    Produces exactly ``[encode_keys(g) for g in key_groups]`` — same
    wire bytes — but computes deltas, byte widths and the payload
    scatter over one concatenated array instead of re-entering the
    codec per group, which matters because the MinMaxSketch path
    encodes ``2 * num_groups`` small key lists per gradient.
    """
    arrays = [np.asarray(g, dtype=np.int64) for g in key_groups]
    for arr in arrays:  # repro: noqa[hot-loop] — O(num_groups) shape validation, not per-element work
        if arr.ndim != 1:
            raise ValueError("keys must be a 1-D array")
    sizes = np.asarray([arr.size for arr in arrays], dtype=np.int64)
    if int(sizes.sum()) == 0:
        return [np.asarray(0, dtype="<u4").tobytes() for _ in arrays]
    return encode_key_groups_flat(
        np.concatenate([arr for arr in arrays if arr.size]), sizes
    )


def encode_key_groups_flat(concat: np.ndarray, sizes: np.ndarray) -> List[bytes]:
    """Encode group-concatenated ascending keys into one blob per group.

    ``concat`` holds every group's keys back to back (``sizes[g]`` of
    them for group ``g``) — the layout :meth:`GroupedMinMaxSketch.partition_flat`
    produces — and the result is byte-identical to slicing out each
    group and calling :func:`encode_keys` on it.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    concat = np.asarray(concat, dtype=np.int64)
    if concat.ndim != 1:
        raise ValueError("keys must be a 1-D array")
    total = int(sizes.sum())
    if concat.size != total:
        raise ValueError("sizes must sum to concat.size")
    if total == 0:
        return [np.asarray(0, dtype="<u4").tobytes() for _ in range(sizes.size)]
    if concat.min() < 0 or concat.max() > _MAX_KEY:
        raise ValueError("keys must lie in [0, 2**32 - 1]")
    starts = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    # Group g (when nonempty) occupies concat[starts[g]:starts[g]+sizes[g]].
    nonempty_starts = starts[sizes > 0]
    deltas = np.empty(total, dtype=np.int64)
    deltas[0] = concat[0]
    deltas[1:] = np.diff(concat)
    deltas[nonempty_starts] = concat[nonempty_starts]  # group-local restart
    # Ascending check without a boolean gather: non-positive deltas are
    # only legal at group restarts (a group may start at key 0).
    non_positive = int(np.count_nonzero(deltas <= 0))
    if non_positive and non_positive != int(
        np.count_nonzero(deltas[nonempty_starts] <= 0)
    ):
        raise ValueError("keys must be strictly ascending (sorted, no repeats)")
    udeltas = deltas.astype(np.uint64)
    widths = _byte_widths(udeltas)

    # Global payload positions; group payloads are contiguous slices.
    offsets = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(widths, out=offsets[1:])
    payload = np.zeros(int(offsets[-1]), dtype=np.uint8)
    # Every delta needs at least one byte, so byte 0 skips the mask.
    payload[offsets[:-1]] = udeltas & np.uint64(0xFF)
    for byte_pos in range(1, 4):
        idx = np.flatnonzero(widths > byte_pos)
        if idx.size == 0:
            break
        payload[offsets.take(idx) + byte_pos] = (
            udeltas.take(idx) >> np.uint64(8 * byte_pos)
        ) & np.uint64(0xFF)

    # Pack every group's 2-bit flags in one pass: shift each flag into
    # its in-byte slot, then OR the four-key runs together with a single
    # reduceat over the per-byte boundaries (a run restarts wherever the
    # position within its group is a multiple of 4).
    flags = (widths - 1).astype(np.uint8)
    local = np.arange(total, dtype=np.int64)
    local -= np.repeat(starts, sizes)
    slot = (local & 3).astype(np.uint8)
    shifted = flags << (slot + slot)
    byte_starts = np.flatnonzero(slot == 0)
    packed = np.bitwise_or.reduceat(shifted, byte_starts)
    fb_offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum((sizes + 3) // 4, out=fb_offsets[1:])

    blobs: List[bytes] = []
    for g in range(sizes.size):
        n = int(sizes[g])
        header = np.asarray(n, dtype="<u4").tobytes()
        if n == 0:
            blobs.append(header)
            continue
        lo = int(starts[g])
        fb_lo, fb_hi = int(fb_offsets[g]), int(fb_offsets[g + 1])
        p_lo, p_hi = int(offsets[lo]), int(offsets[lo + n])
        blobs.append(
            header + packed[fb_lo:fb_hi].tobytes() + payload[p_lo:p_hi].tobytes()
        )
    return blobs


def decode_keys(blob: bytes) -> np.ndarray:
    """Decode a byte string produced by :func:`encode_keys`.

    Returns:
        The original strictly ascending int64 key array.

    Raises:
        ValueError: if the blob is truncated or malformed.
    """
    if len(blob) < _HEADER_BYTES:
        raise ValueError("blob too short to contain a key-count header")
    n = int(np.frombuffer(blob[:_HEADER_BYTES], dtype="<u4")[0])
    if n == 0:
        if len(blob) != _HEADER_BYTES:
            raise ValueError("trailing bytes after empty key block")
        return np.empty(0, dtype=np.int64)
    num_flag_bytes = (n + 3) // 4
    flags_end = _HEADER_BYTES + num_flag_bytes
    if len(blob) < flags_end:
        raise ValueError("blob truncated inside the flag section")
    flag_bytes = np.frombuffer(blob[_HEADER_BYTES:flags_end], dtype=np.uint8)
    widths = np.empty(n, dtype=np.int64)
    for slot in range(4):
        extracted = ((flag_bytes >> (2 * slot)) & 0x3) + 1
        target = widths[slot::4]
        target[:] = extracted[: target.size]

    payload_len = int(widths.sum())
    if len(blob) != flags_end + payload_len:
        raise ValueError(
            f"payload length mismatch: expected {payload_len} bytes, "
            f"found {len(blob) - flags_end}"
        )
    payload = np.frombuffer(blob[flags_end:], dtype=np.uint8)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(widths[:-1], out=offsets[1:])
    deltas = np.zeros(n, dtype=np.uint64)
    for byte_pos in range(4):
        mask = widths > byte_pos
        if not mask.any():
            break
        deltas[mask] |= payload[offsets[mask] + byte_pos].astype(np.uint64) << np.uint64(
            8 * byte_pos
        )
    keys = np.cumsum(deltas.astype(np.int64))
    return keys


def _decode_key_groups_scalar(blobs: Sequence[bytes]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-blob :func:`decode_keys` walk: the reference for the flat decoder."""
    arrays = [decode_keys(blob) for blob in blobs]
    counts = np.asarray([arr.size for arr in arrays], dtype=np.int64)
    if not arrays:
        return np.empty(0, dtype=np.int64), counts
    return np.concatenate(arrays), counts


def decode_key_groups_flat(blobs: Sequence[bytes]) -> Tuple[np.ndarray, np.ndarray]:
    """Decode one blob per group into group-concatenated keys.

    The inverse of :func:`encode_key_groups_flat`: returns
    ``(concat, sizes)`` with ``concat`` equal to
    ``np.concatenate([decode_keys(b) for b in blobs])`` and ``sizes[g]``
    the key count of blob ``g`` — but the flag expansion, the payload
    gather and the running sum (restarted at every group) each run once
    over all blobs instead of once per blob.

    Raises:
        ValueError: exactly what :func:`decode_keys` raises for the
            first truncated or malformed blob.
    """
    # Per-group bookkeeping stays in Python ints: a handful of groups,
    # far cheaper than tiny array ops.
    sizes: List[int] = []
    flag_sections: List[bytes] = []
    payloads: List[bytes] = []
    flag_slots: List[Tuple[int, int]] = []  # per nonempty group: first flag slot, key count
    last_keys: List[int] = []  # ... index of its last key
    payload_ends: List[int] = []  # ... and where its payload ends
    total = payload_bytes = flag_bytes_seen = 0
    for blob in blobs:  # repro: noqa[hot-loop] — O(num_groups) header checks, not per-element work
        n = int.from_bytes(blob[:_HEADER_BYTES], "little")
        flags_end = _HEADER_BYTES + (n + 3) // 4
        if len(blob) < flags_end or (n == 0 and len(blob) != _HEADER_BYTES):
            # Short header, truncated flags or bytes after an empty
            # block: the per-blob walk names the first bad blob.
            return _decode_key_groups_scalar(blobs)
        sizes.append(n)
        if n:
            flag_sections.append(blob[_HEADER_BYTES:flags_end])
            payloads.append(blob[flags_end:])
            flag_slots.append((4 * flag_bytes_seen, n))
            flag_bytes_seen += flags_end - _HEADER_BYTES
            total += n
            payload_bytes += len(blob) - flags_end
            last_keys.append(total - 1)
            payload_ends.append(payload_bytes)
    counts = np.asarray(sizes, dtype=np.int64)
    if total == 0:
        return np.empty(0, dtype=np.int64), counts

    # Four 2-bit flags per byte, little-end first.  A group's flag
    # section is padded to a whole byte; the slots past its last key
    # are dropped when the runs are stitched together.
    flag_bytes = np.frombuffer(b"".join(flag_sections), dtype=np.uint8)
    widths = _FLAG_BYTE_WIDTHS.take(flag_bytes).view(np.uint8)
    if widths.size != total:
        widths = np.concatenate(
            [widths[slot:slot + n] for slot, n in flag_slots]
        )

    # Group payloads sit back to back in the joined buffer, so global
    # cumulative widths address it directly — provided every group's
    # payload is exactly as long as its flags say.
    ends = widths.astype(np.int64)
    np.cumsum(ends, out=ends)
    if ends.take(last_keys).tolist() != payload_ends:
        return _decode_key_groups_scalar(blobs)  # payload length mismatch
    payload = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    offsets = ends - widths
    deltas = payload.take(offsets).astype(np.int64)
    for byte_pos in range(1, 4):
        idx = np.flatnonzero(widths > byte_pos)
        if idx.size == 0:
            break
        deltas[idx] |= payload.take(offsets.take(idx) + byte_pos).astype(
            np.int64
        ) << (8 * byte_pos)

    # One running sum over everything: rewind each later group's first
    # delta by the previous group's total (= its last key), so the sum
    # restarts at every group boundary.
    if len(last_keys) > 1:
        starts = np.asarray([0] + [k + 1 for k in last_keys[:-1]], dtype=np.int64)
        group_sums = np.add.reduceat(deltas, starts)
        deltas[starts[1:]] -= group_sums[:-1]
    return np.cumsum(deltas), counts


def delta_key_stats(keys: np.ndarray) -> DeltaKeyStats:
    """Compute the encoding cost of ``keys`` without materialising bytes."""
    keys = _validate_keys(keys)
    n = keys.size
    if n == 0:
        return DeltaKeyStats(0, 0, 0, _HEADER_BYTES)
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = keys[0]
    deltas[1:] = np.diff(keys).astype(np.uint64)
    widths = _byte_widths(deltas)
    return DeltaKeyStats(
        num_keys=n,
        payload_bytes=int(widths.sum()),
        flag_bytes=(n + 3) // 4,
        header_bytes=_HEADER_BYTES,
    )
