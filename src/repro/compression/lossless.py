"""Lossless integer codecs compared against delta-binary keys (§3.4, §A.3).

The paper dismisses RLE and Huffman for gradient keys ("useless for
non-repetitive gradient keys") and shows in Appendix A.3 that a bitmap
costs ``ceil(rD/8)`` bytes regardless of sparsity.  We implement all of
them behind a common :class:`KeyCodec` interface so the claim can be
measured rather than asserted — see
``benchmarks/test_appendix_key_encoding.py``, which also measures the
block-adaptive Rice code payload v2 ships against the order-statistics
bound ``log2(D/n) + 1.44`` bits per key.

All codecs are exactly invertible for strictly ascending key arrays.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, List, Tuple

import numpy as np

from ..core.delta_encoding import decode_keys as _delta_decode
from ..core.delta_encoding import encode_keys as _delta_encode
from ..core.rice import decode_rice_groups_flat, encode_rice_groups_flat

__all__ = [
    "KeyCodec",
    "DeltaBinaryKeyCodec",
    "BlockRiceKeyCodec",
    "RawKeyCodec",
    "VarintKeyCodec",
    "RunLengthKeyCodec",
    "HuffmanDeltaKeyCodec",
    "BitmapKeyCodec",
    "all_key_codecs",
]


class KeyCodec:
    """Interface for lossless codecs over ascending int key arrays."""

    name: str = "abstract"

    def encode(self, keys: np.ndarray) -> bytes:
        raise NotImplementedError

    def decode(self, blob: bytes) -> np.ndarray:
        raise NotImplementedError

    def bytes_per_key(self, keys: np.ndarray) -> float:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return 0.0
        return len(self.encode(keys)) / keys.size


class DeltaBinaryKeyCodec(KeyCodec):
    """The paper's delta-binary codec (adapter over :mod:`repro.core`)."""

    name = "delta_binary"

    def encode(self, keys: np.ndarray) -> bytes:
        return _delta_encode(keys)

    def decode(self, blob: bytes) -> np.ndarray:
        return _delta_decode(blob)


class BlockRiceKeyCodec(KeyCodec):
    """Payload v2's block-adaptive Rice code, the keys as one group
    (adapter over :mod:`repro.core.rice`)."""

    name = "block_rice"

    def encode(self, keys: np.ndarray) -> bytes:
        keys = np.asarray(keys, dtype=np.int64)
        return encode_rice_groups_flat(keys, np.asarray([keys.size]))[0]

    def decode(self, blob: bytes) -> np.ndarray:
        return decode_rice_groups_flat([blob])[0]


class RawKeyCodec(KeyCodec):
    """4-byte little-endian integers — the uncompressed baseline."""

    name = "raw_int32"

    def encode(self, keys: np.ndarray) -> bytes:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and (keys.min() < 0 or keys.max() > 0xFFFFFFFF):
            raise ValueError("keys must fit in uint32")
        return keys.astype("<u4").tobytes()

    def decode(self, blob: bytes) -> np.ndarray:
        return np.frombuffer(blob, dtype="<u4").astype(np.int64)


class VarintKeyCodec(KeyCodec):
    """LEB128 varints over deltas — the classic protobuf-style encoding.

    Slightly different trade-off from byte flags: continuation bits cost
    1/8 of every byte but there is no separate flag section.
    """

    name = "varint_delta"

    def encode(self, keys: np.ndarray) -> bytes:
        keys = np.asarray(keys, dtype=np.int64)
        out = bytearray()
        prev = 0
        for key in keys.tolist():
            delta = key - prev
            if delta < 0:
                raise ValueError("keys must be ascending for varint deltas")
            prev = key
            while True:
                byte = delta & 0x7F
                delta >>= 7
                if delta:
                    out.append(byte | 0x80)
                else:
                    out.append(byte)
                    break
        return bytes(out)

    def decode(self, blob: bytes) -> np.ndarray:
        keys: List[int] = []
        acc = 0
        shift = 0
        prev = 0
        for byte in blob:
            acc |= (byte & 0x7F) << shift
            if byte & 0x80:
                shift += 7
            else:
                prev += acc
                keys.append(prev)
                acc = 0
                shift = 0
        if shift != 0:
            raise ValueError("truncated varint stream")
        return np.asarray(keys, dtype=np.int64)


class RunLengthKeyCodec(KeyCodec):
    """RLE over the presence bitmap: (gap, run) pairs as uint32.

    Included to substantiate §3.4's claim that RLE suits *consecutive
    repeats*, not scattered keys: for random sparse keys almost every
    run has length 1 and the codec costs ~8 bytes per key.
    """

    name = "rle_bitmap"

    def encode(self, keys: np.ndarray) -> bytes:
        keys = np.asarray(keys, dtype=np.int64)
        pairs: List[int] = []
        prev_end = 0  # first position after the previous run
        i = 0
        n = keys.size
        while i < n:
            run_start = int(keys[i])
            j = i + 1
            while j < n and keys[j] == keys[j - 1] + 1:
                j += 1
            pairs.append(run_start - prev_end)  # gap of zeros
            pairs.append(j - i)  # run of ones
            prev_end = int(keys[j - 1]) + 1
            i = j
        return np.asarray(pairs, dtype="<u4").tobytes()

    def decode(self, blob: bytes) -> np.ndarray:
        pairs = np.frombuffer(blob, dtype="<u4").astype(np.int64)
        keys: List[int] = []
        pos = 0
        for gap, run in zip(pairs[0::2], pairs[1::2]):
            pos += int(gap)
            keys.extend(range(pos, pos + int(run)))
            pos += int(run)
        return np.asarray(keys, dtype=np.int64)


class _HuffmanNode:
    __slots__ = ("freq", "order", "symbol", "left", "right")

    def __init__(self, freq, order, symbol=None, left=None, right=None):
        self.freq = freq
        self.order = order
        self.symbol = symbol
        self.left = left
        self.right = right

    def __lt__(self, other: "_HuffmanNode") -> bool:
        return (self.freq, self.order) < (other.freq, other.order)


class HuffmanDeltaKeyCodec(KeyCodec):
    """Huffman coding over the *bytes* of delta keys.

    The honest way to give Huffman a chance on key data: deltas are
    serialised as raw 4-byte integers, then the byte stream is Huffman
    coded, with the code table shipped in the header.  On scattered
    sparse keys the table overhead plus near-uniform low bytes keep it
    well above delta-binary, as §3.4 predicts.
    """

    name = "huffman_delta"

    def encode(self, keys: np.ndarray) -> bytes:
        keys = np.asarray(keys, dtype=np.int64)
        deltas = np.empty(keys.size, dtype=np.int64)
        if keys.size:
            deltas[0] = keys[0]
            deltas[1:] = np.diff(keys)
        raw = deltas.astype("<u4").tobytes()
        header = np.asarray(keys.size, dtype="<u4").tobytes()
        if not raw:
            return header
        freqs = Counter(raw)
        codes = self._build_codes(freqs)
        # Serialise the table: count, then (symbol, code_len) pairs, then
        # the canonical codes are rebuilt from lengths at decode time.
        table = bytearray()
        table += np.asarray(len(codes), dtype="<u2").tobytes()
        for symbol, code in sorted(codes.items()):
            table.append(symbol)
            table.append(len(code))
        bits = "".join(codes[b] for b in raw)
        payload = self._pack_bits(bits)
        return header + bytes(table) + np.asarray(len(bits), dtype="<u4").tobytes() + payload

    def decode(self, blob: bytes) -> np.ndarray:
        n = int(np.frombuffer(blob[:4], dtype="<u4")[0])
        if n == 0:
            return np.empty(0, dtype=np.int64)
        num_symbols = int(np.frombuffer(blob[4:6], dtype="<u2")[0])
        table_end = 6 + 2 * num_symbols
        lengths: List[Tuple[int, int]] = []
        for i in range(num_symbols):
            symbol = blob[6 + 2 * i]
            length = blob[7 + 2 * i]
            lengths.append((symbol, length))
        codes = self._canonical_codes(lengths)
        bit_count = int(np.frombuffer(blob[table_end:table_end + 4], dtype="<u4")[0])
        bits = self._unpack_bits(blob[table_end + 4:], bit_count)
        decoder = {code: symbol for symbol, code in codes.items()}
        out = bytearray()
        current = ""
        for bit in bits:
            current += bit
            symbol = decoder.get(current)
            if symbol is not None:
                out.append(symbol)
                current = ""
        deltas = np.frombuffer(bytes(out), dtype="<u4").astype(np.int64)
        return np.cumsum(deltas)

    def _build_codes(self, freqs: Counter) -> Dict[int, str]:
        if len(freqs) == 1:
            return {next(iter(freqs)): "0"}
        heap = [
            _HuffmanNode(freq, order, symbol=symbol)
            for order, (symbol, freq) in enumerate(sorted(freqs.items()))
        ]
        heapq.heapify(heap)
        order = len(heap)
        while len(heap) > 1:
            a = heapq.heappop(heap)
            b = heapq.heappop(heap)
            heapq.heappush(heap, _HuffmanNode(a.freq + b.freq, order, left=a, right=b))
            order += 1
        lengths: Dict[int, int] = {}

        def walk(node: _HuffmanNode, depth: int) -> None:
            if node.symbol is not None:
                lengths[node.symbol] = max(depth, 1)
                return
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

        walk(heap[0], 0)
        return self._canonical_codes(sorted(lengths.items()))

    @staticmethod
    def _canonical_codes(lengths: List[Tuple[int, int]]) -> Dict[int, str]:
        """Canonical Huffman: codes assigned by (length, symbol) order."""
        ordered = sorted(lengths, key=lambda item: (item[1], item[0]))
        codes: Dict[int, str] = {}
        code = 0
        prev_len = 0
        for symbol, length in ordered:
            code <<= length - prev_len
            codes[symbol] = format(code, f"0{length}b")
            code += 1
            prev_len = length
        return codes

    @staticmethod
    def _pack_bits(bits: str) -> bytes:
        padded = bits + "0" * (-len(bits) % 8)
        return bytes(
            int(padded[i:i + 8], 2) for i in range(0, len(padded), 8)
        )

    @staticmethod
    def _unpack_bits(blob: bytes, bit_count: int) -> str:
        bits = "".join(format(byte, "08b") for byte in blob)
        return bits[:bit_count]


class BitmapKeyCodec(KeyCodec):
    """Presence bitmap: 1 bit per model dimension (§A.3's alternative).

    Requires the model dimension at construction; costs ``ceil(D/8)``
    bytes no matter how sparse the gradient, which is why delta-binary
    wins whenever ``d/D`` is small.
    """

    name = "bitmap"

    def __init__(self, dimension: int) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = int(dimension)

    def encode(self, keys: np.ndarray) -> bytes:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and (keys.min() < 0 or keys.max() >= self.dimension):
            raise ValueError(f"keys must lie in [0, {self.dimension})")
        bits = np.zeros(self.dimension, dtype=bool)
        bits[keys] = True
        return np.packbits(bits).tobytes()

    def decode(self, blob: bytes) -> np.ndarray:
        bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8))[: self.dimension]
        return np.flatnonzero(bits).astype(np.int64)


def all_key_codecs(dimension: int) -> List[KeyCodec]:
    """One instance of every key codec, for comparison benches."""
    return [
        DeltaBinaryKeyCodec(),
        BlockRiceKeyCodec(),
        RawKeyCodec(),
        VarintKeyCodec(),
        RunLengthKeyCodec(),
        HuffmanDeltaKeyCodec(),
        BitmapKeyCodec(dimension),
    ]
