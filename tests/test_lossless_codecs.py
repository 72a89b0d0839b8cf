"""Tests for the lossless key codecs compared in §3.4 / §A.3."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.lossless import (
    BitmapKeyCodec,
    BlockRiceKeyCodec,
    DeltaBinaryKeyCodec,
    HuffmanDeltaKeyCodec,
    RawKeyCodec,
    RunLengthKeyCodec,
    VarintKeyCodec,
    all_key_codecs,
)

CODEC_FACTORIES = [
    DeltaBinaryKeyCodec,
    BlockRiceKeyCodec,
    RawKeyCodec,
    VarintKeyCodec,
    RunLengthKeyCodec,
    HuffmanDeltaKeyCodec,
    lambda: BitmapKeyCodec(dimension=2**20),
]


def sample_keys(nnz=2_000, dimension=2**20, seed=0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(dimension, size=nnz, replace=False))


@pytest.mark.parametrize("factory", CODEC_FACTORIES)
class TestLosslessContract:
    def test_roundtrip_random_keys(self, factory):
        codec = factory()
        keys = sample_keys(seed=1)
        np.testing.assert_array_equal(codec.decode(codec.encode(keys)), keys)

    def test_roundtrip_consecutive(self, factory):
        codec = factory()
        keys = np.arange(500, dtype=np.int64)
        np.testing.assert_array_equal(codec.decode(codec.encode(keys)), keys)

    def test_roundtrip_single(self, factory):
        codec = factory()
        keys = np.asarray([123_456], dtype=np.int64)
        np.testing.assert_array_equal(codec.decode(codec.encode(keys)), keys)

    def test_roundtrip_empty(self, factory):
        codec = factory()
        keys = np.asarray([], dtype=np.int64)
        assert codec.decode(codec.encode(keys)).size == 0

    def test_bytes_per_key_positive(self, factory):
        codec = factory()
        keys = sample_keys(seed=2)
        assert codec.bytes_per_key(keys) > 0


class TestRelativeCosts:
    """Quantified versions of the paper's qualitative codec claims."""

    def test_delta_binary_beats_raw_on_sparse_keys(self):
        keys = sample_keys(nnz=5_000, dimension=100_000, seed=3)
        delta = DeltaBinaryKeyCodec().bytes_per_key(keys)
        raw = RawKeyCodec().bytes_per_key(keys)
        assert delta < raw / 2  # paper: 3.2x smaller than 4-byte ints

    def test_rle_useless_for_scattered_keys(self):
        """§3.4: RLE suits consecutive repeats, not sparse key sets."""
        keys = sample_keys(nnz=2_000, dimension=2**20, seed=4)
        rle = RunLengthKeyCodec().bytes_per_key(keys)
        delta = DeltaBinaryKeyCodec().bytes_per_key(keys)
        assert rle > 3 * delta

    def test_huffman_overhead_on_sparse_keys(self):
        keys = sample_keys(nnz=2_000, dimension=2**20, seed=5)
        huffman = HuffmanDeltaKeyCodec().bytes_per_key(keys)
        delta = DeltaBinaryKeyCodec().bytes_per_key(keys)
        assert huffman > delta

    def test_bitmap_cost_independent_of_nnz(self):
        """§A.3: bitmap costs ceil(D/8) bytes regardless of sparsity."""
        dimension = 2**16
        codec = BitmapKeyCodec(dimension)
        sparse = sample_keys(nnz=10, dimension=dimension, seed=6)
        dense = sample_keys(nnz=10_000, dimension=dimension, seed=6)
        assert len(codec.encode(sparse)) == len(codec.encode(dense)) == dimension // 8

    def test_bitmap_wins_only_when_dense(self):
        """Delta-binary beats bitmap below ~1/10 density, loses above."""
        dimension = 2**16
        bitmap = BitmapKeyCodec(dimension)
        delta = DeltaBinaryKeyCodec()
        sparse = sample_keys(nnz=dimension // 100, dimension=dimension, seed=7)
        dense = sample_keys(nnz=dimension // 3, dimension=dimension, seed=7)
        assert len(delta.encode(sparse)) < len(bitmap.encode(sparse))
        assert len(bitmap.encode(dense)) < len(delta.encode(dense))

    def test_varint_competitive_with_delta_binary(self):
        keys = sample_keys(nnz=5_000, dimension=2**20, seed=8)
        varint = VarintKeyCodec().bytes_per_key(keys)
        delta = DeltaBinaryKeyCodec().bytes_per_key(keys)
        assert varint < 2 * delta
        assert delta < 2 * varint


class TestEdgeCases:
    def test_bitmap_validates_range(self):
        codec = BitmapKeyCodec(dimension=100)
        with pytest.raises(ValueError):
            codec.encode(np.asarray([150]))
        with pytest.raises(ValueError):
            BitmapKeyCodec(dimension=0)

    def test_varint_rejects_descending(self):
        with pytest.raises(ValueError, match="ascending"):
            VarintKeyCodec().encode(np.asarray([5, 3]))

    def test_varint_truncated_stream(self):
        blob = VarintKeyCodec().encode(np.asarray([1_000_000]))
        with pytest.raises(ValueError, match="truncated"):
            VarintKeyCodec().decode(blob[:-1])

    def test_raw_rejects_oversized(self):
        with pytest.raises(ValueError):
            RawKeyCodec().encode(np.asarray([2**33]))

    def test_all_key_codecs_helper(self):
        codecs = all_key_codecs(dimension=1_024)
        names = {codec.name for codec in codecs}
        assert names == {
            "delta_binary",
            "block_rice",
            "raw_int32",
            "varint_delta",
            "rle_bitmap",
            "huffman_delta",
            "bitmap",
        }

    def test_huffman_single_distinct_byte(self):
        """Degenerate Huffman tree (one symbol) still roundtrips."""
        keys = np.arange(1, 50, dtype=np.int64)  # all deltas == 1
        codec = HuffmanDeltaKeyCodec()
        np.testing.assert_array_equal(codec.decode(codec.encode(keys)), keys)


@given(
    deltas=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=200),
)
@settings(max_examples=30, deadline=None)
def test_all_codecs_roundtrip_property(deltas):
    keys = np.cumsum(np.asarray(deltas, dtype=np.int64))
    codecs = [
        DeltaBinaryKeyCodec(),
        RawKeyCodec(),
        VarintKeyCodec(),
        RunLengthKeyCodec(),
        HuffmanDeltaKeyCodec(),
        BitmapKeyCodec(dimension=int(keys[-1]) + 1),
    ]
    for codec in codecs:
        np.testing.assert_array_equal(codec.decode(codec.encode(keys)), keys)
