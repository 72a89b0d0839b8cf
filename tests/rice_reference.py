"""Pure-Python executable spec of the payload-v2 block-adaptive Rice code.

One key list at a time, one bit at a time, no numpy: the package's
fused whole-array codec (:mod:`repro.core.rice`) must agree with it
byte for byte.  It picks each block's parameter by brute force over
every ``k`` in ``0 … 31``, so it also checks the codec's convexity
shortcut.
"""

from typing import List, Sequence, Tuple

from repro.core.delta_encoding import encode_keys

__all__ = [
    "BLOCK_KEYS",
    "MAX_K",
    "block_cost",
    "best_k",
    "encode_group",
    "decode_group",
    "encode_groups_v2",
]

BLOCK_KEYS = 64
MAX_K = 31


def _gaps(keys: Sequence[int]) -> List[int]:
    return [k - prev - 1 for prev, k in zip([-1] + list(keys[:-1]), keys)]


def block_cost(gaps: Sequence[int], k: int) -> int:
    """Bits of one block at parameter ``k``: unary plus low bits."""
    return sum((g >> k) + 1 + k for g in gaps)


def best_k(gaps: Sequence[int]) -> int:
    """The smallest ``k`` of minimal block cost."""
    return min(range(MAX_K + 1), key=lambda k: (block_cost(gaps, k), k))


def _pack(bits: List[int]) -> bytes:
    bits = bits + [0] * (-len(bits) % 8)
    return bytes(
        sum(bit << i for i, bit in enumerate(bits[j:j + 8]))
        for j in range(0, len(bits), 8)
    )


def encode_group(keys: Sequence[int], ks: Sequence[int] = None) -> bytes:
    """One group's Rice blob: ``count u32 | k bytes | low | unary``.

    ``ks`` forces each block's parameter (to forge non-canonical blobs);
    by default each block gets :func:`best_k`.
    """
    keys = [int(k) for k in keys]
    gaps = _gaps(keys)
    blocks = [gaps[i:i + BLOCK_KEYS] for i in range(0, len(gaps), BLOCK_KEYS)]
    if ks is None:
        ks = [best_k(block) for block in blocks]
    low: List[int] = []
    unary: List[int] = []
    for block, k in zip(blocks, ks):
        for g in block:
            low += [(g >> j) & 1 for j in range(k)]
            unary += [0] * (g >> k) + [1]
    return len(keys).to_bytes(4, "little") + bytes(ks) + _pack(low) + _pack(unary)


def decode_group(blob: bytes) -> List[int]:
    """Inverse of :func:`encode_group`; raises ``ValueError`` on any blob
    :func:`encode_group` would not emit."""
    n = int.from_bytes(blob[:4], "little")
    nb = -(-n // BLOCK_KEYS)
    ks = list(blob[4:4 + nb])
    sizes = [min(BLOCK_KEYS, n - BLOCK_KEYS * b) for b in range(nb)]
    low_len = -(-sum(s * k for s, k in zip(sizes, ks)) // 8)
    bits = lambda data: [(byte >> i) & 1 for byte in data for i in range(8)]
    low = bits(blob[4 + nb:4 + nb + low_len])
    unary = bits(blob[4 + nb + low_len:])
    keys: List[int] = []
    prev = -1
    for size, k in zip(sizes, ks):
        for _ in range(size):
            q = unary.index(1)
            unary = unary[q + 1:]
            r = sum(bit << j for j, bit in enumerate(low[:k]))
            low = low[k:]
            prev += (q << k) + r + 1
            keys.append(prev)
    if encode_group(keys) != bytes(blob):
        raise ValueError("not the canonical Rice blob of its keys")
    return keys


def encode_groups_v2(groups: Sequence[Sequence[int]]) -> Tuple[int, List[bytes]]:
    """The part-level choice: Rice (code 1) only when strictly smaller."""
    rice = [encode_group(g) for g in groups]
    delta = [encode_keys([int(k) for k in g]) for g in groups]
    if sum(map(len, rice)) < sum(map(len, delta)):
        return 1, rice
    return 0, delta
