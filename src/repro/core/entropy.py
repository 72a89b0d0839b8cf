"""Dense fixed-radix code for bucket indexes and sketch cells.

A kind-1 part (the ``Adam+Key+Quan`` path; sketch parts carry no index
stream) ships one bucket index per key.  The quantizer's buckets are
equi-depth by construction (§3.2), so the stream is near-uniform over
an alphabet of ``b`` symbols: on the benchmark's ``entropy_aio``
traffic ``b`` is 57–71, every symbol count is 32 or 64, and the
empirical entropy (5.77–6.09 bits) sits within 0.06 bits of
``log2(b)``.  A frequency model is worth less than the table it has to
ship; what *is* worth taking is ``b < 256`` — a plain ``u1`` spends 8
bits on a ~6-bit symbol — and that needs no model at all.

So the code is positional: the stream is cut into words of ``k``
digits, each word is the base-``b`` integer of its digits (Horner,
most significant first) and is written as ``wb`` little-endian bytes.
``(k, wb)`` is the pair with ``b**k <= 2**64`` that minimises ``wb/k``
(:func:`radix_params`; e.g. ``b = 57 → (4, 3)``: 6.00 bits/symbol).
Payload v2 uses the same code for a grouped sketch's cells, whose
alphabet is an in-group offset or the empty sentinel (9 symbols at the
default ``q = 128, r = 8``: ``(5, 2)``, 3.2 bits/cell).  Properties the
wire format relies on:

* **Deterministic** — integer arithmetic only; ``(b, symbols)`` fixes
  the bytes on every platform (the golden fixtures pin this).
* **Self-checking** — the coded length is exactly ``ceil(n/k) * wb``,
  every word must be below ``b**k`` and the unused digits of the last
  word must be zero, so there is one canonical encoding and truncated,
  padded or out-of-range streams raise :class:`EntropyError`.
* **Bounded and vectorised** — encode is ``k - 1`` multiply-adds and
  decode ``k - 1`` divmods over ``ceil(n/k)`` uint64 lanes; every
  iteration count is fixed by ``(b, n)``, nothing by the data.  For
  ``b > 1`` the exact-length check bounds ``n`` by the bytes present
  before anything of size ``n`` is allocated; ``b = 1`` codes to zero
  bytes, so its ``n`` must be bounded by the caller.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple, Union

import numpy as np

__all__ = [
    "EntropyError",
    "MAX_RADIX",
    "radix_params",
    "coded_size",
    "encode_indexes",
    "decode_indexes",
    "quantize_freqs",
]

#: Largest alphabet the coder accepts — the widest index the wire
#: carries is a ``u2``.
MAX_RADIX = 1 << 16

_WORD_BYTES = 8


class EntropyError(ValueError):
    """Raised when a symbol stream cannot be coded or decoded."""


@lru_cache(maxsize=None)
def radix_params(radix: int) -> Tuple[int, int]:
    """``(k, wb)``: digits per word and bytes per word for base ``radix``.

    Among all ``k`` with ``radix**k <= 2**64`` picks the one minimising
    ``wb / k`` where ``wb = ceil(bits(radix**k - 1) / 8)``; ties go to
    the smaller ``k``.  ``radix = 1`` gives ``(1, 0)``: zero bytes.
    """
    if not 1 <= radix <= MAX_RADIX:
        raise EntropyError(f"radix {radix} outside [1, {MAX_RADIX}]")
    best_k, best_wb = 0, 0
    power = 1
    for k in range(1, 8 * _WORD_BYTES + 1):
        power *= radix
        if power > 1 << (8 * _WORD_BYTES):
            break
        wb = ((power - 1).bit_length() + 7) // 8
        if best_k == 0 or wb * best_k < best_wb * k:
            best_k, best_wb = k, wb
    return best_k, best_wb


def coded_size(radix: int, count: int) -> int:
    """Exact byte length of ``count`` symbols coded in base ``radix``."""
    k, wb = radix_params(radix)
    return -(-count // k) * wb


def _radix_of(model: Union[int, np.ndarray]) -> int:
    # A 1-d table is read for its length only (see quantize_freqs).
    return int(model) if np.ndim(model) == 0 else len(model)


def encode_indexes(symbols: np.ndarray, radix: Union[int, np.ndarray]) -> bytes:
    """Code symbols in ``[0, radix)`` into :func:`coded_size` bytes.

    Raises:
        EntropyError: if a symbol falls outside ``[0, radix)``.
    """
    radix = _radix_of(radix)
    k, wb = radix_params(radix)
    if not (
        isinstance(symbols, np.ndarray)
        and symbols.ndim == 1
        and symbols.dtype.kind in "ui"
    ):
        raise EntropyError("symbols must be a 1-d integer array")
    count = symbols.size
    num_words = -(-count // k)
    digits = np.zeros(num_words * k, dtype=np.uint64)
    digits[:count] = symbols
    # A negative symbol wraps to >= 2**63, so one check covers both ends.
    if count and int(digits.max()) >= radix:
        raise EntropyError(f"symbol outside the {radix}-symbol alphabet")
    digits = digits.reshape(num_words, k)
    # Horner: no intermediate exceeds radix**k - 1 < 2**64.
    words = digits[:, 0].copy()
    base = np.uint64(radix)
    for j in range(1, k):
        words *= base
        words += digits[:, j]
    lanes = words.astype("<u8", copy=False).view(np.uint8)
    return lanes.reshape(num_words, _WORD_BYTES)[:, :wb].tobytes()


def decode_indexes(
    blob: bytes, radix: Union[int, np.ndarray], count: int
) -> np.ndarray:
    """Decode exactly ``count`` symbols; the inverse of :func:`encode_indexes`.

    Raises:
        EntropyError: if the blob is not exactly :func:`coded_size`
            bytes, a word is ``>= radix**k``, or the padding digits of
            the last word are not zero.
    """
    radix = _radix_of(radix)
    k, wb = radix_params(radix)
    if count < 0:
        raise EntropyError(f"cannot decode {count} symbols")
    num_words = -(-count // k)
    if len(blob) != num_words * wb:
        raise EntropyError(
            f"{count} base-{radix} symbols code to {num_words * wb} bytes, "
            f"got {len(blob)}"
        )
    lanes = np.zeros((num_words, _WORD_BYTES), dtype=np.uint8)
    lanes[:, :wb] = np.frombuffer(blob, dtype=np.uint8).reshape(num_words, wb)
    words = lanes.view("<u8").ravel().astype(np.uint64, copy=False)
    digits = np.empty((num_words, k), dtype=np.uint64)
    base = np.uint64(radix)
    for j in range(k - 1, 0, -1):
        np.divmod(words, base, out=(words, digits[:, j]))
    digits[:, 0] = words
    # After k-1 divisions the quotient is the top digit iff the word
    # was below radix**k.
    if num_words and int(words.max()) >= radix:
        raise EntropyError(f"coded word is not below {radix}**{k}")
    flat = digits.ravel()
    if flat[count:].any():
        raise EntropyError("non-zero padding digits in the last word")
    return flat[:count].view(np.int64)


def quantize_freqs(counts: np.ndarray) -> np.ndarray:
    """Compatibility shim for ``benchmarks/e2e/probes.py`` — nothing else.

    The probe still builds a "model" from a histogram and passes it to
    :func:`encode_indexes` / :func:`decode_indexes`.  The radix code
    has no probability model: the only thing read from the returned
    table is its length, which is the radix.  Goes away with the probe
    in the next benchmark PR.

    Raises:
        EntropyError: if the histogram is empty, negative or all zero.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise EntropyError("histogram must be a non-empty 1-d array")
    if counts.min() < 0 or not counts.any():
        raise EntropyError("histogram must be non-negative and not all zero")
    return np.minimum(counts, 0xFFFF).astype("<u2")
