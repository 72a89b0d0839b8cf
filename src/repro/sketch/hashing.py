"""Seeded hash families used by every sketch in this library.

Sketch error bounds (Count-Min, Count Sketch, MinMaxSketch) assume the
hash functions of different rows are drawn independently from a pairwise
independent family.  We provide two families:

* :class:`MultiplyShiftHash` — the classic ``(a*x + b) mod p mod t``
  construction over a Mersenne prime, vectorised with numpy.  Pairwise
  independent, extremely fast, and the default everywhere.
* :class:`TabulationHash` — 4-wise-ish tabulation hashing over the four
  bytes of a 32-bit key.  Slower but with much stronger independence
  guarantees; useful when validating that a result does not depend on the
  hash family.

Both operate on non-negative integer keys (gradient dimensions) and map
them into ``[0, num_bins)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

import numpy as np

__all__ = [
    "MERSENNE_PRIME_61",
    "HashFunction",
    "MultiplyShiftHash",
    "TabulationHash",
    "HashFamily",
    "build_hash_family",
    "hash_all_grouped",
]

#: 2**61 - 1, the Mersenne prime used for modular universal hashing.
MERSENNE_PRIME_61 = (1 << 61) - 1

_MAX_KEY_BITS = 32
_P64 = np.uint64(MERSENNE_PRIME_61)


def _mod_mersenne(x: np.ndarray) -> np.ndarray:
    """``x % (2**61 - 1)`` via the Mersenne fold — no integer division.

    Exact for any uint64 input: ``(x & p) + (x >> 61)`` is at most
    ``p + 7``, so a single conditional subtract finishes the reduction.
    Bit-identical to ``x % p`` but several times faster, which matters
    because the multiply-shift hash reduces three times per key.
    """
    x = (x & _P64) + (x >> np.uint64(61))
    np.subtract(x, _P64, out=x, where=x >= _P64)
    return x


def _fold_mersenne(x: np.ndarray) -> np.ndarray:
    """Partial Mersenne reduction: congruent to ``x`` mod p, ``<= p + 7``.

    Skips :func:`_mod_mersenne`'s conditional subtract; summands reduced
    this way stay below ``2**63`` for three terms, so the *sum* cannot
    wrap and one final exact :func:`_mod_mersenne` recovers the same
    residue the fully-reduced arithmetic would.
    """
    return (x & _P64) + (x >> np.uint64(61))


class HashFunction:
    """Protocol-style base class for a single seeded hash function.

    Subclasses map arrays of non-negative integer keys into
    ``[0, num_bins)``.  They must be deterministic for a given seed so
    that an encoder and a decoder constructed with the same seed agree
    on every bin placement.
    """

    def __init__(self, num_bins: int, seed: int) -> None:
        if num_bins <= 0:
            raise ValueError(f"num_bins must be positive, got {num_bins}")
        self.num_bins = int(num_bins)
        self.seed = int(seed)

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        """Hash an array of keys; returns an int64 array of bin indexes."""
        raise NotImplementedError

    def hash_one(self, key: int) -> int:
        """Hash a single scalar key."""
        return int(self(np.asarray([key], dtype=np.int64))[0])


class MultiplyShiftHash(HashFunction):
    """Pairwise-independent universal hash ``((a*x + b) mod p) mod t``.

    ``a`` and ``b`` are drawn from a seeded PRNG with ``a`` odd and
    nonzero, ``p`` the Mersenne prime ``2**61 - 1``.  Computation is done
    in Python-int space only at construction; the per-call path is pure
    numpy ``uint64`` arithmetic using the standard Mersenne-prime
    reduction trick, so hashing a million keys is a handful of vector ops.
    """

    def __init__(self, num_bins: int, seed: int) -> None:
        super().__init__(num_bins, seed)
        rng = np.random.default_rng(seed)
        # a in [1, p-1] and odd; b in [0, p-1]
        self._a = int(rng.integers(1, MERSENNE_PRIME_61)) | 1
        self._b = int(rng.integers(0, MERSENNE_PRIME_61))

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size and keys.max() >= (1 << _MAX_KEY_BITS):
            raise ValueError("keys must fit in 32 bits for MultiplyShiftHash")
        # (a * x + b) mod (2^61 - 1) without overflow: split a into high
        # and low 30-bit halves so every intermediate fits in uint64.
        a = self._a
        a_hi = np.uint64(a >> 30)
        a_lo = np.uint64(a & ((1 << 30) - 1))
        prod_lo = keys * a_lo
        prod_hi = keys * a_hi
        # a*x = prod_hi * 2^30 + prod_lo; reduce mod 2^61-1 via the
        # identity 2^61 ≡ 1 (mod p).
        combined = (
            (prod_hi << np.uint64(30)) % np.uint64(MERSENNE_PRIME_61)
            + prod_lo % np.uint64(MERSENNE_PRIME_61)
            + np.uint64(self._b)
        )
        combined %= np.uint64(MERSENNE_PRIME_61)
        return (combined % np.uint64(self.num_bins)).astype(np.int64)


class TabulationHash(HashFunction):
    """Simple tabulation hashing over the 4 bytes of a 32-bit key.

    Each byte position gets a seeded table of 256 random 64-bit words;
    the hash is the XOR of the four looked-up words, reduced mod the
    number of bins.  3-wise independent and empirically behaves like a
    fully random function for sketching workloads.
    """

    def __init__(self, num_bins: int, seed: int) -> None:
        super().__init__(num_bins, seed)
        rng = np.random.default_rng(seed)
        self._tables = rng.integers(
            0, np.iinfo(np.int64).max, size=(4, 256), dtype=np.int64
        ).astype(np.uint64)

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size and keys.max() >= (1 << _MAX_KEY_BITS):
            raise ValueError("keys must fit in 32 bits for TabulationHash")
        out = np.zeros(keys.shape, dtype=np.uint64)
        for byte in range(4):
            chunk = (keys >> np.uint64(8 * byte)) & np.uint64(0xFF)
            out ^= self._tables[byte][chunk.astype(np.int64)]
        return (out % np.uint64(self.num_bins)).astype(np.int64)


class HashFamily(Sequence):
    """All ``s`` hash rows of one sketch, with a fused all-rows kernel.

    Behaves like the plain list of :class:`HashFunction` it used to be
    (indexing, iteration, ``len``), and adds :meth:`hash_all`, which
    computes every row's bins in one batched numpy evaluation instead
    of ``s`` Python-level calls.  ``hash_all`` is bit-identical to the
    per-row loop: it runs the same uint64 arithmetic, just broadcast
    over a ``(rows, keys)`` grid.
    """

    def __init__(self, functions: Sequence[HashFunction], num_bins: int) -> None:
        self._functions: List[HashFunction] = list(functions)
        self.num_bins = int(num_bins)
        # Pre-gather per-row parameters when every row is the same
        # concrete type, so hash_all can broadcast instead of looping.
        if all(isinstance(f, MultiplyShiftHash) for f in self._functions):
            self._kind = "multiply_shift"
            a = np.asarray([f._a for f in self._functions], dtype=np.uint64)
            # (a_hi * keys) << 30 == (a_hi << 30) * keys in uint64 wrap
            # arithmetic, so the shift is folded into the multiplier.
            self._a_hi_shifted = (a >> np.uint64(30) << np.uint64(30)).reshape(-1, 1)
            self._a_lo = (a & np.uint64((1 << 30) - 1)).reshape(-1, 1)
            self._b = np.asarray(
                [f._b for f in self._functions], dtype=np.uint64
            ).reshape(-1, 1)
        elif all(isinstance(f, TabulationHash) for f in self._functions):
            self._kind = "tabulation"
            # (rows, 4, 256) stack of per-row byte tables.
            self._tables = np.stack([f._tables for f in self._functions])
        else:
            self._kind = "mixed"

    def __len__(self) -> int:
        return len(self._functions)

    def __getitem__(self, index):
        return self._functions[index]

    def hash_all(self, keys: np.ndarray) -> np.ndarray:
        """Hash ``keys`` through every row at once.

        Returns:
            int64 array of shape ``(num_rows, keys.size)`` where row
            ``i`` equals ``self[i](keys)`` exactly.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.empty((len(self), 0), dtype=np.int64)
        if self._kind == "mixed":
            return np.stack([h(keys) for h in self._functions])
        if keys.max() >= (1 << _MAX_KEY_BITS):
            raise ValueError("keys must fit in 32 bits")
        if self._kind == "multiply_shift":
            return _reduce_to_bins(
                keys[None, :] * self._a_hi_shifted,
                keys[None, :] * self._a_lo,
                self._b,
                self.num_bins,
            )
        out = np.zeros((len(self), keys.size), dtype=np.uint64)
        for byte in range(4):
            chunk = ((keys >> np.uint64(8 * byte)) & np.uint64(0xFF)).astype(np.int64)
            out ^= self._tables[:, byte][:, chunk]
        return (out % np.uint64(self.num_bins)).view(np.int64)


def _reduce_to_bins(hi: np.ndarray, lo: np.ndarray, b, num_bins) -> np.ndarray:
    """``((hi + lo + b) mod p) mod t`` in place on the ``hi`` product grid.

    ``hi`` and ``lo`` are the two ``(rows, keys)`` half-products of
    ``a * x`` (``hi`` is overwritten), giving identical bits to the
    scalar :class:`MultiplyShiftHash` arithmetic.  The fold/reduce chain
    runs in place, so a grid costs one buffer beyond the two products.
    ``lo`` is below ``2**62`` (32-bit key times 30-bit multiplier), so
    it joins the sum unfolded: with the folded ``hi`` and ``b < 2**61``
    the total stays under ``2**64`` and the one exact reduction at the
    end lands on the same residue the fully-reduced arithmetic would.
    ``num_bins`` is a scalar or a per-key uint64 vector (mixed-width
    grouped hashing); the scalar case takes the remainder as
    ``x - (x // t) * t`` because numpy divides by a scalar without a
    hardware divide per element.
    """
    tmp = hi >> np.uint64(61)
    np.bitwise_and(hi, _P64, out=hi)
    np.add(hi, tmp, out=hi)
    np.add(hi, lo, out=hi)
    np.add(hi, b, out=hi)
    np.right_shift(hi, np.uint64(61), out=tmp)
    np.bitwise_and(hi, _P64, out=hi)
    np.add(hi, tmp, out=hi)
    np.subtract(hi, _P64, out=hi, where=hi >= _P64)
    if isinstance(num_bins, np.ndarray):
        np.remainder(hi, num_bins, out=hi)
    else:
        num_bins = np.uint64(num_bins)
        np.floor_divide(hi, num_bins, out=tmp)
        np.multiply(tmp, num_bins, out=tmp)
        np.subtract(hi, tmp, out=hi)
    return hi.view(np.int64)


@lru_cache(maxsize=256)
def _stacked_multiply_shift_params(families: tuple):
    """``(a_hi_shifted, a_lo, b)`` as ``(rows, groups)`` uint64 matrices."""
    return (
        np.concatenate([f._a_hi_shifted for f in families], axis=1),
        np.concatenate([f._a_lo for f in families], axis=1),
        np.concatenate([f._b for f in families], axis=1),
    )


def hash_all_grouped(
    families: Sequence["HashFamily"],
    keys: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Hash concatenated per-group keys through per-group families at once.

    ``keys`` holds every group's keys back to back (``counts[g]`` of
    them belonging to group ``g``); the result equals
    ``np.concatenate([families[g].hash_all(keys_g)], axis=1)`` exactly.
    For all-multiply-shift families the per-row parameters are repeated
    out to element level and the whole grid is hashed in a single fused
    evaluation — the GroupedMinMaxSketch insert and query paths call
    this once per sign instead of once per group.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if len(families) != counts.size:
        raise ValueError("one count per family required")
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.size != int(counts.sum()):
        raise ValueError("counts must sum to keys.size")
    fused = (
        all(f._kind == "multiply_shift" for f in families)
        and len({len(f) for f in families}) == 1
    )
    if not fused:
        bounds = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        return np.concatenate(
            [
                families[g].hash_all(keys[bounds[g]:bounds[g + 1]])
                for g in range(len(families))
            ],
            axis=1,
        )
    if keys.size == 0:
        return np.empty((len(families[0]), 0), dtype=np.int64)
    if keys.max() >= (1 << _MAX_KEY_BITS):
        raise ValueError("keys must fit in 32 bits")
    a_hi, a_lo, b = _stacked_multiply_shift_params(tuple(families))
    bins = np.asarray([f.num_bins for f in families], dtype=np.uint64)
    num_bins = (
        # Per-family bin counts: repeat to element level so the final
        # remainder still runs as one broadcast pass.
        int(bins[0]) if (bins == bins[0]).all() else np.repeat(bins, counts)
    )
    # The element-level multipliers double as the product buffers.
    hi = np.repeat(a_hi, counts, axis=1)
    np.multiply(hi, keys, out=hi)
    lo = np.repeat(a_lo, counts, axis=1)
    np.multiply(lo, keys, out=lo)
    return _reduce_to_bins(hi, lo, np.repeat(b, counts, axis=1), num_bins)


_FAMILIES = {
    "multiply_shift": MultiplyShiftHash,
    "tabulation": TabulationHash,
}


def build_hash_family(
    num_hashes: int,
    num_bins: int,
    seed: int,
    family: str = "multiply_shift",
) -> "HashFamily":
    """Build ``num_hashes`` independent hash functions into ``num_bins`` bins.

    Row ``i`` is seeded deterministically from ``(seed, i)`` so that two
    sketches constructed with the same ``(num_hashes, num_bins, seed,
    family)`` — e.g. the encoder on a worker and the decoder on the
    driver — produce identical hash placements.

    Args:
        num_hashes: number of independent rows (``s`` in the paper).
        num_bins: bins per row (``t`` in the paper).
        seed: master seed.
        family: ``"multiply_shift"`` (default) or ``"tabulation"``.

    Returns:
        A :class:`HashFamily` (sequence of :class:`HashFunction`, one
        per row, plus the fused :meth:`HashFamily.hash_all` kernel).
        Families are stateless once built, so repeated calls with the
        same parameters return one shared cached instance — the
        encoder rebuilds a sketch per message, and reseeding numpy
        generators for every row dominated sketch construction before
        this cache.
    """
    if num_hashes <= 0:
        raise ValueError(f"num_hashes must be positive, got {num_hashes}")
    if family not in _FAMILIES:
        raise ValueError(
            f"unknown hash family {family!r}; choose from {sorted(_FAMILIES)}"
        )
    return _build_hash_family_cached(int(num_hashes), int(num_bins), int(seed), family)


@lru_cache(maxsize=1024)
def _build_hash_family_cached(
    num_hashes: int, num_bins: int, seed: int, family: str
) -> "HashFamily":
    cls = _FAMILIES[family]
    # Offset row seeds by a large odd stride so adjacent master seeds do
    # not produce overlapping row seeds.
    functions = [
        cls(num_bins, seed * 0x9E3779B1 + 0x85EBCA77 * i) for i in range(num_hashes)
    ]
    return HashFamily(functions, num_bins)
