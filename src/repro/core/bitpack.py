"""Bit-level packing of small unsigned integers.

§3.2 step 4 "binary encode"s bucket indexes; with ``q = 256`` that is
exactly one byte, but any smaller bucket count wastes bits in byte
alignment (q = 128 needs only 7 bits, q = 16 only 4).  This module
packs an array of values < 2**bits into ``ceil(n * bits / 8)`` bytes
and back, vectorised (packbits to pack, a 3-byte window gather to
unpack).

Used by the ``pack_index_bits`` option of
:class:`~repro.core.config.SketchMLConfig` (the Adam+Key+Quan path) and
available as a standalone utility.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_uint_array", "unpack_uint_array", "packed_size_bytes"]

_MAX_BITS = 16


def packed_size_bytes(count: int, bits: int) -> int:
    """Bytes needed to pack ``count`` values of ``bits`` bits each."""
    if count < 0:
        raise ValueError("count must be non-negative")
    _validate_bits(bits)
    return -(-count * bits // 8)


def _validate_bits(bits: int) -> None:
    if not 1 <= bits <= _MAX_BITS:
        raise ValueError(f"bits must be in [1, {_MAX_BITS}], got {bits}")


def pack_uint_array(values: np.ndarray, bits: int) -> bytes:
    """Pack unsigned integers < 2**bits into a dense bit string.

    Args:
        values: 1-D array of non-negative ints below ``2**bits``.
        bits: bits per value (1–16).

    Returns:
        ``ceil(len(values) * bits / 8)`` bytes, MSB-first per value.
    """
    _validate_bits(bits)
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 1:
        raise ValueError("values must be a 1-D array")
    if values.size == 0:
        return b""
    if values.min() < 0 or values.max() >= (1 << bits):
        raise ValueError(f"values must lie in [0, 2**{bits})")
    # Expand each value to its `bits` bits (MSB first), then pack.
    shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
    bit_matrix = ((values[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    return np.packbits(bit_matrix.ravel()).tobytes()


def unpack_uint_array(blob: bytes, count: int, bits: int) -> np.ndarray:
    """Inverse of :func:`pack_uint_array`.

    Args:
        blob: packed bytes.
        count: number of values to recover.
        bits: bits per value used at pack time.

    Raises:
        ValueError: if the blob is too short for ``count`` values.
    """
    _validate_bits(bits)
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    needed = packed_size_bytes(count, bits)
    if len(blob) < needed:
        raise ValueError(
            f"blob holds {len(blob)} bytes; {needed} needed for "
            f"{count} x {bits}-bit values"
        )
    # bits <= 16 and a value starts at most 7 bits into a byte, so each
    # value lies inside the 3-byte big-endian window that opens at the
    # byte holding its first bit: gather the window, shift, mask.
    data = np.zeros(needed + 2, dtype=np.uint8)
    data[:needed] = np.frombuffer(blob, dtype=np.uint8, count=needed)
    first_bit = np.arange(count, dtype=np.int64) * bits
    byte = first_bit >> 3
    window = (
        (data[byte].astype(np.uint32) << 16)
        | (data[byte + 1].astype(np.uint32) << 8)
        | data[byte + 2]
    )
    # uint32 >> int64 promotes to int64, the documented return dtype.
    return (window >> ((24 - bits) - (first_bit & 7))) & ((1 << bits) - 1)
