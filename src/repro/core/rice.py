"""Block-adaptive Rice code for the ascending keys of payload v2.

Every delta-keyed part ships ascending key lists: one per group for a
MinMaxSketch part, one for a raw-value or bucket-index part.  Payload
v1 codes each list delta-binary (§3.4: one byte minimum plus a 2-bit
flag, ≥ 10 bits per key); payload v2 codes them with a Rice code whose
parameter adapts per block of 64 keys, which lands near the
order-statistics bound ``log2(D/n) + 1.44`` bits per key.

The code, per group of ``n`` ascending keys ``k_0 < k_1 < …``:

* gaps ``g_i = k_i − k_{i−1} − 1`` with ``k_{−1} = −1`` (so ``g_0 = k_0``);
* blocks of :data:`BLOCK_KEYS` consecutive gaps (the last one may be
  short; blocks never straddle groups), each with its own parameter
  ``k`` — the smallest minimiser of the block's exact coded size;
* a **low stream**: every gap's ``k`` low bits, and a **unary stream**:
  every gap's ``g >> k`` zeros followed by a one.  Both are LSB-first
  within a byte and zero-padded to a whole byte.

One blob per group, all integers little-endian::

    count u32 | k u8[ceil(count / 64)] | low stream | unary stream

The low stream's length follows from ``count`` and the ``k`` bytes; the
unary stream is the rest of the blob.  An empty group is the bare
``count`` (4 bytes), as in delta-binary.  A full block's low bits are
``64·k`` bits, a whole number of bytes, so every block starts on a byte
boundary.

**The parameter.** With ``S_j = Σ (g >> j)`` over a block of ``n``
gaps, its size in bits is ``f(k) = S_k + n·(k + 1)`` and
``f(k) − f(k+1) = D(k) − n`` with ``D(k) = S_k − S_{k+1} =
Σ ⌈(g >> k) / 2⌉``.  ``D`` never increases with ``k``, so ``f`` is
convex and its smallest minimiser is the smallest ``k`` with
``D(k) ≤ n`` (at most 31: gaps are below ``2^32``).  Rounding bounds
``D(k)`` within ``n/2`` of ``n·mean/2^(k+1)``, which puts that ``k``
between ``⌊log2 mean⌋ − 1`` and ``⌊log2 mean⌋ + 1``; the encoder
evaluates those levels and the decoder checks each shipped ``k`` against
``D(k) ≤ n < D(k − 1)``, so every key list has exactly one blob.

**The choice.** Rice can lose to delta-binary on adversarial gaps (many
tiny gaps plus one huge one), and on tiny parts.  Both sizes are pure
functions of the gaps, so :func:`encode_key_groups_v2` computes them
before coding either and codes only the smaller (Rice only when
strictly smaller); the part's key code records the choice
(:data:`KEY_CODE_DELTA` / :data:`KEY_CODE_RICE`), and
:func:`decode_key_parts` rejects a part whose code is not the one the
encoder would have chosen.

Everything is whole-array numpy work over all groups at once: the
unary stream is one ``packbits``/``unpackbits``, the low stream is
summed into 32-bit words on encode and read back with one 8-byte
window gather per key on decode.  A reader hands
:func:`decode_key_parts` every part of a message, so one decode pass
covers all of its Rice blobs.  There is no scalar twin in the package;
``tests/rice_reference.py`` is a pure-Python executable spec of the
same code.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .delta_encoding import decode_key_groups_flat, encode_key_groups_flat

__all__ = [
    "BLOCK_KEYS",
    "MAX_K",
    "KEY_CODE_DELTA",
    "KEY_CODE_RICE",
    "encode_rice_groups_flat",
    "decode_rice_groups_flat",
    "encode_key_groups_v2",
    "decode_key_parts",
    "rice_key_count",
]

#: Keys per Rice block (one ``k`` byte each).
BLOCK_KEYS = 64
_BLOCK_SHIFT = 6
#: Largest Rice parameter; gaps are below ``2**32``.
MAX_K = 31

#: Payload-v2 key codes of a part's key blobs (a kind-2 part's
#: ``key_code`` byte; a kind-0/1 part's ``key_kind`` byte is the code
#: plus one).
KEY_CODE_DELTA = 0
KEY_CODE_RICE = 1

_HEADER_BYTES = 4
_MAX_KEY = 2**32 - 1
# Per parameter k: the low-bits mask.
_LOW_MASKS = (np.int64(1) << np.arange(MAX_K + 1, dtype=np.int64)) - 1


def _exclusive_sums(values: List[int]) -> List[int]:
    out = [0] * (len(values) + 1)
    for i in range(len(values)):
        out[i + 1] = out[i] + values[i]
    return out


class _Layout:
    """Group and block structure of group-concatenated keys.

    Group-level bookkeeping stays in Python ints (a handful of groups);
    block-level arrays are numpy.
    """

    __slots__ = ("counts", "total", "groups", "firsts", "lasts", "blocks",
                 "first_block", "sizes", "block_starts")

    def __init__(self, counts: List[int]) -> None:
        self.counts = counts
        self.groups: List[int] = []  # nonempty groups
        self.blocks: List[int] = []
        self.first_block = [0]
        firsts: List[int] = []
        sizes: List[int] = []
        key = 0
        for g in range(len(counts)):
            n = counts[g]
            full, rest = divmod(n, BLOCK_KEYS)
            if n:
                self.groups.append(g)
                firsts.append(key)
            sizes += [BLOCK_KEYS] * full
            if rest:
                sizes.append(rest)
            self.blocks.append(full + (rest > 0))
            self.first_block.append(len(sizes))
            key += n
        self.total = key
        self.firsts = np.array(firsts, dtype=np.int64)
        self.lasts = np.array(
            [firsts[i] + counts[self.groups[i]] - 1 for i in range(len(firsts))],
            dtype=np.int64,
        )
        self.sizes = np.array(sizes, dtype=np.int64)
        self.block_starts = self.sizes.cumsum()
        self.block_starts -= self.sizes

    def per_group(self, per_block: np.ndarray) -> List[List[int]]:
        """Sum each row of an ``(m, blocks)`` array over every group.

        Returns ``m`` lists with one total per group (0 for empty groups).
        """
        sums = np.add.reduceat(
            per_block, [self.first_block[g] for g in self.groups], axis=1
        ).tolist()
        if len(self.groups) == len(self.counts):
            return sums
        out = [[0] * len(self.counts) for _ in sums]
        for i in range(len(self.groups)):
            for row in range(len(sums)):
                out[row][self.groups[i]] = sums[row][i]
        return out


def _layout_and_gaps(
    concat: np.ndarray, counts: np.ndarray
) -> Tuple[_Layout, np.ndarray]:
    concat = np.asarray(concat, dtype=np.int64)
    if concat.ndim != 1:
        raise ValueError("keys must be a 1-D array")
    layout = _Layout(np.asarray(counts, dtype=np.int64).tolist())
    if concat.size != layout.total:
        raise ValueError("counts must sum to the number of keys")
    if concat.size == 0:
        return layout, concat
    gaps = np.empty(concat.size, dtype=np.int64)
    gaps[0] = concat[0]
    np.subtract(concat[1:], concat[:-1], out=gaps[1:])
    gaps -= 1
    gaps[layout.firsts] = concat.take(layout.firsts)  # group-local restart
    # Non-negative gaps make each group ascending from a key >= 0, so
    # its last key is its largest.
    if gaps.min() < 0:
        if int(concat.take(layout.firsts).min()) < 0:
            raise ValueError("keys must lie in [0, 2**32 - 1]")
        raise ValueError("keys must be strictly ascending within a group")
    if int(concat.take(layout.lasts).max()) > _MAX_KEY:
        raise ValueError("keys must lie in [0, 2**32 - 1]")
    return layout, gaps


def _block_params(
    gaps: np.ndarray, layout: _Layout
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each block's ``k``, every gap's quotient ``g >> k``, and ``S_k``.

    ``k`` is the smallest level with ``D(k) = S_k − S_{k+1} ≤ n``, and
    ``D(k)`` lies within ``n/2`` of ``n·mean/2^(k+1)``.  With
    ``2^(e−1) ≤ mean < 2^e``: ``D(e) < n/2 + n/2``, so ``k ≤ e``; and
    ``D(e − 3) ≥ 2n − n/2 > n``, so ``k ≥ e − 2``.  The levels
    ``e − 2 … e`` therefore settle every block.
    Rounding the mean to a float keeps both bounds: it cannot cross
    the power of two above the true mean, and crossing the one below
    leaves the lower bound at ``1.5n − ε``.
    """
    sizes, starts = layout.sizes, layout.block_starts
    lo = np.frexp(np.add.reduceat(gaps, starts) / sizes)[1]
    lo -= 2
    np.maximum(lo, 0, out=lo)
    levels = np.empty((3, gaps.size), dtype=np.int64)
    np.right_shift(gaps, lo.repeat(sizes), out=levels[0])
    np.right_shift(levels[0], 1, out=levels[1])
    np.right_shift(levels[1], 1, out=levels[2])
    sums = np.add.reduceat(levels, starts, axis=1)
    # D is non-increasing, so the levels below k are those whose D
    # exceeds n; D(lo + 2) never does.
    steps = (sums[:2] - sums[1:] > sizes).sum(axis=0)
    quotients = levels[0] >> steps.repeat(sizes)
    return lo + steps, quotients, sums[steps, np.arange(steps.size, dtype=np.int64)]


class _RicePlan:
    """Parameters and exact sizes of the Rice blobs, before coding."""

    __slots__ = ("layout", "gaps", "ks", "quotients", "low_bits",
                 "unary_bits", "low_bytes", "unary_bytes", "size")

    def __init__(self, layout: _Layout, gaps: np.ndarray) -> None:
        self.layout = layout
        self.gaps = gaps
        if gaps.size:
            self.ks, self.quotients, sum_q = _block_params(gaps, layout)
            bits = np.empty((2, self.ks.size), dtype=np.int64)
            np.multiply(layout.sizes, self.ks, out=bits[0])
            np.add(layout.sizes, sum_q, out=bits[1])
            self.low_bits, self.unary_bits = layout.per_group(bits)
        else:
            self.ks = self.quotients = gaps
            self.low_bits = self.unary_bits = [0] * len(layout.counts)
        self.low_bytes = [(b + 7) >> 3 for b in self.low_bits]
        self.unary_bytes = [(b + 7) >> 3 for b in self.unary_bits]
        self.size = (
            _HEADER_BYTES * len(layout.counts) + sum(layout.blocks)
            + sum(self.low_bytes) + sum(self.unary_bytes)
        )

    def encode(self) -> List[bytes]:
        layout = self.layout
        low_starts = _exclusive_sums(self.low_bytes)
        unary_starts = _exclusive_sums(self.unary_bytes)
        low = unary = b""
        if self.gaps.size:
            low, unary = _pack_streams(self, low_starts, unary_starts)
        kbytes = self.ks.astype(np.uint8).tobytes()
        blobs: List[bytes] = []
        for g in range(len(layout.counts)):
            blobs.append(
                layout.counts[g].to_bytes(_HEADER_BYTES, "little")
                + kbytes[layout.first_block[g]:layout.first_block[g + 1]]
                + low[low_starts[g]:low_starts[g + 1]]
                + unary[unary_starts[g]:unary_starts[g + 1]]
            )
        return blobs


def _pack_streams(
    plan: _RicePlan, low_starts: List[int], unary_starts: List[int]
) -> Tuple[bytes, bytes]:
    """Every group's low and unary streams, each group's byte-aligned.

    Key ``i``'s low bits start ``Σ k`` bits (over the keys before it in
    its group) into its group's low stream — full blocks are whole
    bytes, so blocks need no padding of their own — and its terminator
    sits ``Σ (q + 1) − 1`` bits into its group's unary stream.  One
    running sum of ``k << 32 | (q + 1)`` yields both; a step added at
    each group's first key moves the sum onto that group's streams.

    Low values occupy disjoint bit ranges, so adding them into 32-bit
    words packs them: shifted to its place in its word a value fits in
    62 bits, and its high half is the part that spills into the next.
    """
    layout = plan.layout
    if 8 * unary_starts[-1] >> 32 or 8 * low_starts[-1] >> 31:
        raise ValueError("key part too large for one Rice pass")
    per_key_k = plan.ks.repeat(layout.sizes)
    sums = per_key_k << 32
    sums += plan.quotients
    sums += 1
    # Before group g, the running sum holds the low and unary bits of
    # the groups before it; step it onto 8 x the group's stream starts.
    low_before = unary_before = shift = 0
    steps = []
    for i in range(len(layout.groups)):
        g = layout.groups[i]
        target = ((8 * low_starts[g] - low_before) << 32) + (
            8 * unary_starts[g] - unary_before - 1
        )
        steps.append(target - shift)
        shift = target
        low_before += plan.low_bits[g]
        unary_before += plan.unary_bits[g]
    sums[layout.firsts] += steps
    sums.cumsum(out=sums)
    offsets = sums >> 32
    offsets -= per_key_k
    sums &= 0xFFFF_FFFF

    bits = np.zeros(8 * unary_starts[-1], dtype=np.uint8)
    bits[sums] = 1
    unary = np.packbits(bits, bitorder="little").tobytes()

    values = plan.quotients << per_key_k
    np.subtract(plan.gaps, values, out=values)
    values <<= offsets & 31
    offsets >>= 5
    # A k = 0 value at the very end may "start" one word past the stream.
    words = np.bincount(offsets, values & 0xFFFF_FFFF, ((low_starts[-1] + 3) >> 2) + 2)
    values >>= 32
    spills = np.flatnonzero(values)
    # Only a word's last value can spill, so no word takes two spills.
    words[offsets.take(spills) + 1] += values.take(spills)
    return words.astype("<u4").tobytes()[:low_starts[-1]], unary


def encode_rice_groups_flat(concat: np.ndarray, counts: np.ndarray) -> List[bytes]:
    """Rice-code group-concatenated ascending keys, one blob per group.

    ``concat`` holds every group's keys back to back (``counts[g]`` of
    them for group ``g``), as :meth:`GroupedMinMaxSketch.partition_flat`
    produces them.

    Raises:
        ValueError: keys outside ``[0, 2**32)``, not strictly ascending
            within a group, or counts that do not sum to ``concat.size``.
    """
    return _RicePlan(*_layout_and_gaps(concat, counts)).encode()


def _delta_floor(counts: np.ndarray) -> int:
    """Delta-binary blob bytes of key lists of these sizes if every
    delta took one byte: a lower bound of :func:`_delta_size`."""
    counts = np.asarray(counts, dtype=np.int64)
    return int(_HEADER_BYTES * counts.size + (counts + 3 >> 2).sum() + counts.sum())


def _delta_size(layout: _Layout, gaps: np.ndarray) -> int:
    """Total delta-binary blob bytes of the same key lists.

    Per group a count and a 2-bit length flag per key, then one byte per
    delta plus one more above each of ``0xFF``, ``0xFFFF`` and
    ``0xFFFFFF``.  Deltas are ``g + 1``, except a group's first, which is
    its key (``= g``).
    """
    total = _delta_floor(layout.counts)
    firsts = gaps.take(layout.firsts).tolist()
    for step in (0xFF, 0xFFFF, 0xFF_FFFF):
        total += int(np.count_nonzero(gaps >= step)) - firsts.count(step)
    return total


def _rice_wins(plan: _RicePlan) -> bool:
    """Whether the Rice blobs are strictly smaller than delta-binary;
    the floor settles it without counting wide deltas when it can."""
    return plan.size < _delta_floor(plan.layout.counts) or plan.size < _delta_size(
        plan.layout, plan.gaps
    )


def encode_key_groups_v2(
    concat: np.ndarray, counts: np.ndarray
) -> Tuple[int, List[bytes]]:
    """A part's payload-v2 key blobs: ``(key_code, blobs)``.

    Both candidate sizes are computed from the gaps before anything is
    coded; Rice is used only when strictly smaller than delta-binary,
    so a v2 part's keys are never larger than its v1 keys.
    """
    plan = _RicePlan(*_layout_and_gaps(concat, counts))
    if _rice_wins(plan):
        return KEY_CODE_RICE, plan.encode()
    return KEY_CODE_DELTA, encode_key_groups_flat(
        np.asarray(concat, dtype=np.int64), np.asarray(counts, dtype=np.int64)
    )


def _blocks(counts: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Block structure of group-concatenated keys, ``counts[g]`` per group.

    Returns, per block: its group, its index within the group, its key
    count and its first key.
    """
    per_group = counts + (BLOCK_KEYS - 1) >> _BLOCK_SHIFT
    group = np.arange(counts.size, dtype=np.int64).repeat(per_group)
    local = np.arange(group.size, dtype=np.int64)
    local -= (per_group.cumsum() - per_group)[group]
    first_keys = local << _BLOCK_SHIFT
    sizes = counts[group] - first_keys
    np.minimum(sizes, BLOCK_KEYS, out=sizes)
    first_keys += (counts.cumsum() - counts)[group]
    return group, local, sizes, first_keys


def _blob_error(g: int, blob: bytes) -> str:
    """The first check Rice blob ``g`` fails, as an error message."""
    if len(blob) < _HEADER_BYTES:
        return f"group {g}: blob too short for a key-count header"
    n = int.from_bytes(blob[:_HEADER_BYTES], "little")
    if n > 8 * len(blob):
        # Every key costs at least its unary terminator bit.
        return f"group {g}: count {n} is not justified by a {len(blob)}-byte blob"
    nb = (n + BLOCK_KEYS - 1) >> _BLOCK_SHIFT
    ks = blob[_HEADER_BYTES:_HEADER_BYTES + nb]
    if len(ks) < nb:
        return f"group {g}: blob ends inside its k bytes"
    if n == 0:
        return f"group {g}: trailing bytes after an empty key block"
    if max(ks) > MAX_K:
        return f"group {g}: Rice parameter {max(ks)} exceeds {MAX_K}"
    low_bits = BLOCK_KEYS * (sum(ks) - ks[-1]) + (n - BLOCK_KEYS * (nb - 1)) * ks[-1]
    low_end = _HEADER_BYTES + nb + (low_bits + 7 >> 3)
    if len(blob) <= low_end:
        return (
            f"group {g}: {len(blob)} bytes cannot hold a "
            f"{low_end - _HEADER_BYTES - nb}-byte low-bits stream and a "
            f"unary stream"
        )
    if low_bits & 7 and blob[low_end - 1] >> (low_bits & 7):
        return f"group {g}: non-zero padding in the low-bits stream"
    return f"group {g}: trailing zero byte after the unary stream"


def decode_rice_groups_flat(blobs: Sequence[bytes]) -> Tuple[np.ndarray, np.ndarray]:
    """Decode one Rice blob per group into ``(concat, counts)``.

    The inverse of :func:`encode_rice_groups_flat`, and strict: any
    blob the encoder would not emit raises ``ValueError`` — a count the
    blob's bits cannot hold (checked before anything is allocated), a
    ``k`` byte above 31 or not the block's minimiser, a low stream the
    blob cannot hold, non-zero padding, a unary stream with a trailing
    zero byte or a terminator count other than the key count, or a key
    at or above ``2**32``.

    The blobs are joined once, with 8 zero bytes behind them so that
    every unaligned 8-byte window stays inside, and every section is
    addressed in that one buffer: group bookkeeping is arrays over the
    groups, block bookkeeping arrays over the blocks, and the keys cost
    a fixed number of whole-array passes.
    """
    num_groups = len(blobs)
    if num_groups == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    lens = np.fromiter(map(len, blobs), dtype=np.int64, count=num_groups)
    buf = b"".join([*blobs, bytes(8)])
    data = np.frombuffer(buf, dtype=np.uint8)
    windows = np.ndarray(
        shape=(len(buf) - 7,), dtype="<i8", buffer=buf, strides=(1,)
    )
    ends = lens.cumsum()
    starts = ends - lens
    counts = windows[starts] & 0xFFFF_FFFF

    # Blob checks, over all groups at once; _blob_error names the first
    # failure of the first bad blob.  Only framed blobs (the count and
    # the k bytes fit) have their k bytes read.
    starts += _HEADER_BYTES
    low_starts = starts + (counts + (BLOCK_KEYS - 1) >> _BLOCK_SHIFT)
    framed = (counts <= 8 * lens) & (low_starts <= ends)
    group, local, sizes, first_keys = _blocks(counts * framed)
    ks = data[starts[group] + local]
    low_bits = np.bincount(group, sizes * ks, num_groups).astype(np.int64)
    low_ends = low_starts + (low_bits + 7 >> 3)
    nonempty = counts > 0
    bad = ~framed
    bad[group[ks > MAX_K]] = True
    # An empty blob is the bare header.  Otherwise a unary stream
    # follows the low bits, whose padding is zero (a shift by 8 clears
    # a whole byte), and does not end in a zero byte.
    bad |= (ends > low_ends) != nonempty
    bad |= data[np.minimum(low_ends, ends) - 1] >> ((low_bits - 1 & 7) + 1) > 0
    bad |= nonempty & (data[ends - 1] == 0)
    if np.count_nonzero(bad):
        g = int(np.flatnonzero(bad)[0])
        raise ValueError(_blob_error(g, blobs[g]))
    if not ks.size:
        return np.empty(0, dtype=np.int64), counts

    # Unary streams: terminator bit positions, then quotients.  Each
    # group holds exactly its own keys' terminators when the running
    # terminator count matches the running key count at every group's
    # stream end.
    unary_lens = ends - low_ends
    unary_ends = unary_lens.cumsum()
    unary_starts = unary_ends - unary_lens
    terminators = np.flatnonzero(np.unpackbits(
        data[np.arange(unary_ends[-1], dtype=np.int64)
             + (low_ends - unary_starts).repeat(unary_lens)],
        bitorder="little",
    ).view(bool))
    key_ends = counts.cumsum()
    seen = np.searchsorted(terminators, 8 * unary_ends)
    if seen.tolist() != key_ends.tolist():
        per_group = np.diff(seen, prepend=0)
        g = int(np.flatnonzero(per_group != counts)[0])
        raise ValueError(
            f"group {g}: unary stream holds {per_group[g]} "
            f"terminators for {counts[g]} keys"
        )
    firsts = (key_ends - counts)[nonempty]
    quotients = np.empty(terminators.size, dtype=np.int64)
    np.subtract(terminators[1:], terminators[:-1], out=quotients[1:])
    quotients -= 1
    quotients[firsts] = terminators[firsts] - 8 * unary_starts[nonempty]

    # Low streams: one unaligned 8-byte little-endian window per key.
    # A group's blocks before its last are full, 64·k bits each, so key
    # i of block b starts (i − b's first key)·k bits after the 64·Σ k
    # bits of b's predecessors in its group.
    ks = ks.astype(np.int64)
    per_key_k = ks.repeat(sizes)
    prior_k = ks.cumsum()
    prior_k -= ks
    block_bits = prior_k - prior_k[np.arange(ks.size, dtype=np.int64) - local]
    block_bits <<= _BLOCK_SHIFT
    block_bits += 8 * low_starts[group]
    block_bits -= first_keys * ks
    offsets = np.arange(terminators.size, dtype=np.int64)
    offsets *= per_key_k
    offsets += block_bits.repeat(sizes)
    low_values = windows.take(offsets >> 3)
    low_values >>= offsets & 7
    low_values &= _LOW_MASKS[ks].repeat(sizes)

    # Gaps, then keys; every gap and key is below 2**32.  A quotient is
    # at most its group's unary bit count, which usually settles it.
    if (8 * max(unary_lens.tolist()) << int(ks.max())) > _MAX_KEY and np.any(
        quotients > (_MAX_KEY >> per_key_k)
    ):
        raise ValueError("decoded key is 2**32 or larger")
    # k_i = k_{i-1} + g_i + 1 from k_{-1} = -1: steps of g + 1, except
    # that a group's first step is its first key, g_0.  A group's steps
    # sum to its last key.
    keys = quotients << per_key_k
    keys |= low_values
    keys += 1
    keys[firsts] -= 1
    last_keys = np.add.reduceat(keys, firsts)
    if max(last_keys.tolist()) > _MAX_KEY:
        raise ValueError("decoded key is 2**32 or larger")
    # Rewind each later group's first step by the previous group's last
    # key, so one running sum restarts at every group.
    keys[firsts[1:]] -= last_keys[:-1]
    keys.cumsum(out=keys)

    # Canonical parameters: D(k) ≤ n < D(k − 1) in every block, with
    # D(k) = S_k − S_{k+1} and D(k − 1) = S_k + #{low bit k−1 set}:
    # block sums of q, q >> 1 and (2·low) >> k.
    sum_q = np.add.reduceat(quotients, first_keys)
    sum_q -= sizes
    np.right_shift(quotients, 1, out=offsets)  # offsets is scratch now
    halves = np.add.reduceat(offsets, first_keys)
    np.left_shift(low_values, 1, out=offsets)
    offsets >>= per_key_k
    tops = np.add.reduceat(offsets, first_keys)
    tops += sum_q
    wrong = (sum_q > halves) | ((tops <= 0) & (ks > 0))
    if np.count_nonzero(wrong):
        b = int(np.flatnonzero(wrong)[0])
        raise ValueError(
            f"block {b}: Rice parameter {int(ks[b])} is not the block's "
            f"smallest size minimiser"
        )
    return keys, counts


def _check_choice(
    key_code: int, keys: np.ndarray, counts: np.ndarray, size: int
) -> None:
    """Raise unless ``key_code`` is the one :func:`encode_key_groups_v2`
    picks for these keys; ``size`` is their blobs' total length."""
    if key_code == KEY_CODE_RICE:
        if size >= _delta_floor(counts) and size >= _delta_size(
            *_layout_and_gaps(keys, counts)
        ):
            raise ValueError(
                f"key code {KEY_CODE_RICE} (Rice) for keys whose {size}-byte "
                f"Rice blobs are not smaller than delta-binary"
            )
    else:
        plan = _RicePlan(*_layout_and_gaps(keys, counts))
        if _rice_wins(plan):
            raise ValueError(
                f"key code {KEY_CODE_DELTA} (delta-binary) for keys whose "
                f"Rice blobs ({plan.size} bytes) are smaller"
            )


_DECODERS = {
    KEY_CODE_RICE: decode_rice_groups_flat,
    KEY_CODE_DELTA: decode_key_groups_flat,
    None: decode_key_groups_flat,
}


def decode_key_parts(
    parts: Sequence[Tuple[Optional[int], Sequence[bytes]]]
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Decode the key blobs of a message's parts: ``(concat, counts)``
    per ``(key_code, blobs)``.

    ``key_code`` ``None`` marks delta-binary blobs of a payload-v1
    message, which has no code to check.  The blobs of every part in
    one code are decoded in one call (one pass for a message's Rice
    blobs, whatever its parts), and then each part's code must be the
    one :func:`encode_key_groups_v2` picks for its keys.  A decode
    error names the failing blob by its position among all of the
    message's blobs in that code.

    Raises:
        ValueError: an unknown key code, a malformed blob, or a code
            the encoder would not have chosen.
    """
    codes = [code for code, _ in parts]
    unknown = [code for code in codes if code not in _DECODERS]
    if unknown:
        raise ValueError(f"unknown key code {unknown[0]}")
    out: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(parts)  # type: ignore[list-item]
    for key_code, decode in _DECODERS.items():
        if key_code not in codes:
            continue
        keys, counts = decode(
            [blob for code, blobs in parts if code == key_code for blob in blobs]
        )
        bounds = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        group = 0
        for i, (code, blobs) in enumerate(parts):
            if code != key_code:
                continue
            end = group + len(blobs)
            part_keys = keys[bounds[group]:bounds[end]]
            part_counts = counts[group:end]
            if key_code is not None:
                _check_choice(key_code, part_keys, part_counts, sum(map(len, blobs)))
            out[i] = (part_keys, part_counts)
            group = end
    return out


def rice_key_count(blob: bytes) -> int:
    """The key count a Rice blob declares, once its length justifies it.

    The same first two checks :func:`decode_rice_groups_flat` makes,
    for a reader that must bound a part's key count before it decodes
    the blob: a 4-byte header, and at most one key per bit.
    """
    if len(blob) < _HEADER_BYTES:
        raise ValueError(_blob_error(0, blob))
    n = int.from_bytes(blob[:_HEADER_BYTES], "little")
    if n > 8 * len(blob):
        raise ValueError(_blob_error(0, blob))
    return n
