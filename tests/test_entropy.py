"""Unit tests for the dense fixed-radix index coder (`core/entropy.py`)
and the serializer contract it carries: v2-with-entropy is never larger
than v2-without or the retired v1, and deserialize → serialize is the
identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitpack import pack_uint_array
from repro.core.compressor import SketchMLCompressor
from repro.core.config import SketchMLConfig
from repro.core.delta_encoding import encode_keys
from repro.core.entropy import (
    MAX_RADIX,
    EntropyError,
    coded_size,
    decode_indexes,
    encode_indexes,
    quantize_freqs,
    radix_params,
)
from repro.core.serialization import deserialize_message, serialize_message
from tests.payload_v1_reference import serialize_v1

#: The published (k, wb) table (ISSUE 15 / docs/wire.md).
PINNED = {
    1: (1, 0),
    2: (8, 1),
    3: (5, 1),
    57: (4, 3),
    64: (4, 3),
    71: (9, 7),
    128: (8, 7),
    200: (1, 1),
    256: (1, 1),
    1000: (4, 5),
    65536: (1, 2),
}


def _coded_len(radix, count):
    k, wb = radix_params(radix)
    return -(-count // k) * wb


def _reference_encode(symbols, radix):
    """The format in arbitrary-precision Python ints, one word at a
    time — the executable spec the uint64 lanes must match."""
    k, wb = radix_params(radix)
    digits = [int(s) for s in symbols]
    digits += [0] * (-len(digits) % k)
    out = bytearray()
    for start in range(0, len(digits), k):
        word = 0
        for d in digits[start:start + k]:
            word = word * radix + d
        out += word.to_bytes(wb, "little")
    return bytes(out)


class TestRadixParams:
    @pytest.mark.parametrize("radix, expected", sorted(PINNED.items()))
    def test_published_table(self, radix, expected):
        assert radix_params(radix) == expected

    @pytest.mark.parametrize("radix", [0, -1, MAX_RADIX + 1])
    def test_out_of_range_radix(self, radix):
        with pytest.raises(EntropyError):
            radix_params(radix)

    def test_word_always_fits_and_is_the_densest(self):
        for radix in list(range(1, 300)) + [1000, 4096, 65535, 65536]:
            k, wb = radix_params(radix)
            assert radix ** k <= 1 << 64
            assert radix ** k - 1 < 1 << (8 * wb) or (radix, wb) == (1, 0)
            # No admissible k is strictly denser; an equal one is larger.
            j = 1
            while radix ** j <= 1 << 64 and j <= 64:
                other = ((radix ** j - 1).bit_length() + 7) // 8
                assert other * k >= wb * j
                if other * k == wb * j:
                    assert j >= k
                j += 1


class TestRoundTrip:
    @given(
        radix=st.integers(1, MAX_RADIX),
        count=st.integers(0, 5000),
        dtype=st.sampled_from(["u1", "<u2", "int64"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_and_exact_length(self, radix, count, dtype, seed):
        if dtype == "u1":
            radix = min(radix, 256)
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, radix, size=count).astype(dtype)
        blob = encode_indexes(symbols, radix)
        assert len(blob) == _coded_len(radix, count)
        assert blob == _reference_encode(symbols, radix)
        decoded = decode_indexes(blob, radix, count)
        assert decoded.dtype == np.int64
        np.testing.assert_array_equal(decoded, symbols)

    @pytest.mark.parametrize("radix", sorted(PINNED))
    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 2400])
    def test_pinned_lengths(self, radix, count):
        symbols = np.arange(count, dtype=np.int64) % radix
        blob = encode_indexes(symbols, radix)
        assert len(blob) == coded_size(radix, count) == _coded_len(radix, count)
        np.testing.assert_array_equal(
            decode_indexes(blob, radix, count), symbols
        )

    @pytest.mark.parametrize("radix", sorted(set(PINNED) | {5, 255, 65535}))
    def test_largest_word_does_not_overflow(self, radix):
        """All digits at radix - 1 is the word radix**k - 1: the largest
        value any Horner step produces."""
        k, wb = radix_params(radix)
        symbols = np.full(3 * k, radix - 1, dtype=np.int64)
        blob = encode_indexes(symbols, radix)
        assert blob == (radix ** k - 1).to_bytes(8, "little")[:wb] * 3
        np.testing.assert_array_equal(
            decode_indexes(blob, radix, symbols.size), symbols
        )

    def test_deterministic_and_layout_independent(self):
        rng = np.random.default_rng(3)
        wide = rng.integers(0, 61, size=(1200, 2)).astype(np.uint8)
        view = wide[:, 0]
        assert not view.flags.c_contiguous
        first = encode_indexes(view, 61)
        assert first == encode_indexes(view, 61)
        assert first == encode_indexes(np.ascontiguousarray(view), 61)
        assert first == encode_indexes(view.astype(np.int64), 61)

    def test_frequency_table_is_read_for_its_length_only(self):
        """The benchmark probe's call shape: a histogram-derived table
        where the coder takes a radix."""
        symbols = np.asarray([0, 3, 3, 6, 1], dtype=np.uint8)
        freqs = quantize_freqs(np.bincount(symbols, minlength=9))
        assert freqs.dtype == np.dtype("<u2") and freqs.size == 9
        blob = encode_indexes(symbols, freqs)
        assert blob == encode_indexes(symbols, 9)
        np.testing.assert_array_equal(
            decode_indexes(blob, freqs, symbols.size), symbols
        )
        for bad in ([], [0, 0], [1, -1], [[1, 2]]):
            with pytest.raises(EntropyError):
                quantize_freqs(np.asarray(bad))


class TestFailureModes:
    RADIX = 57  # (k, wb) = (4, 3)
    SYMBOLS = np.asarray([56, 0, 13, 55, 1, 2, 3, 4, 9], dtype=np.uint8)

    def _blob(self):
        return encode_indexes(self.SYMBOLS, self.RADIX)

    @pytest.mark.parametrize("bad", [57, 255])
    def test_symbol_above_radix(self, bad):
        symbols = self.SYMBOLS.copy()
        symbols[4] = bad
        with pytest.raises(EntropyError, match="alphabet"):
            encode_indexes(symbols, self.RADIX)

    def test_negative_symbol(self):
        with pytest.raises(EntropyError, match="alphabet"):
            encode_indexes(np.asarray([1, -1, 2]), self.RADIX)

    def test_non_integer_or_2d_symbols(self):
        with pytest.raises(EntropyError):
            encode_indexes(np.asarray([0.5, 1.0]), self.RADIX)
        with pytest.raises(EntropyError):
            encode_indexes(np.zeros((2, 2), dtype=np.uint8), self.RADIX)

    def test_truncated_and_padded_blob(self):
        blob = self._blob()
        n = self.SYMBOLS.size
        for bad in (blob[:-1], blob + b"\x00", b""):
            with pytest.raises(EntropyError, match="code to"):
                decode_indexes(bad, self.RADIX, n)

    def test_count_must_match_the_coded_length(self):
        blob = self._blob()
        n = self.SYMBOLS.size
        # 9..12 symbols all code to 3 words; 13 needs a fourth.
        with pytest.raises(EntropyError, match="code to"):
            decode_indexes(blob, self.RADIX, n + 4)
        with pytest.raises(EntropyError, match="code to"):
            decode_indexes(blob, self.RADIX, 8)
        with pytest.raises(EntropyError):
            decode_indexes(blob, self.RADIX, -1)

    def test_lying_count_fails_before_allocating(self):
        # 2**40 symbols would be an 8 TiB digit matrix.
        with pytest.raises(EntropyError, match="code to"):
            decode_indexes(self._blob(), self.RADIX, 1 << 40)

    def test_word_out_of_range(self):
        blob = bytearray(self._blob())
        blob[3:6] = (self.RADIX ** 4).to_bytes(3, "little")
        with pytest.raises(EntropyError, match="not below"):
            decode_indexes(bytes(blob), self.RADIX, self.SYMBOLS.size)
        blob[3:6] = b"\xff\xff\xff"
        with pytest.raises(EntropyError, match="not below"):
            decode_indexes(bytes(blob), self.RADIX, self.SYMBOLS.size)

    def test_nonzero_padding_digits(self):
        blob = bytearray(self._blob())
        # Last word holds one symbol and three padding digits.
        word = ((9 * 57 + 0) * 57 + 0) * 57 + 1
        blob[6:9] = word.to_bytes(3, "little")
        with pytest.raises(EntropyError, match="padding"):
            decode_indexes(bytes(blob), self.RADIX, self.SYMBOLS.size)
        # ... which would be a valid 12-symbol stream.
        assert decode_indexes(bytes(blob), self.RADIX, 12)[-1] == 1

    def test_one_symbol_alphabet_codes_to_nothing(self):
        assert encode_indexes(np.zeros(100, dtype=np.uint8), 1) == b""
        np.testing.assert_array_equal(
            decode_indexes(b"", 1, 100), np.zeros(100, dtype=np.int64)
        )
        with pytest.raises(EntropyError, match="code to"):
            decode_indexes(b"\x00", 1, 100)


# ----------------------------------------------------------------------
# serializer-level contract
# ----------------------------------------------------------------------
def _f4_exact(means):
    return bool(np.array_equal(means.astype(np.float32), means))


def _index_message(indexes, layout):
    """A real Adam+Key+Quan message with its index streams replaced by
    ``indexes`` (split across the sign parts), held as ``u1``, ``u2``
    or bit-packed at the narrowest width."""
    nnz = indexes.size
    rng = np.random.default_rng(nnz)
    keys = np.sort(rng.choice(nnz * 50 + 64, size=nnz, replace=False))
    values = rng.laplace(scale=0.01, size=nnz)
    values[values == 0.0] = 1e-4
    config = SketchMLConfig.full(seed=1, enable_minmax=False)
    message = SketchMLCompressor(config).compress(keys, values, nnz * 50 + 64)
    start = 0
    for part in message.payload.parts:
        chunk = indexes[start:start + part.nnz]
        start += part.nnz
        if layout == "packed":
            part.index_bits = max(int(indexes.max()).bit_length(), 1)
            part.packed_indexes = pack_uint_array(chunk, part.index_bits)
            part.indexes = None
        else:
            part.indexes = chunk.astype(layout)
    return message


@st.composite
def _index_streams(draw):
    alphabet = draw(st.integers(1, 256))
    count = draw(st.integers(2, 1500))
    shape = draw(st.sampled_from(["uniform", "one-symbol", "skewed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "uniform":
        indexes = rng.integers(0, alphabet, size=count)
    elif shape == "one-symbol":
        indexes = np.full(count, alphabet - 1)
    else:
        indexes = np.minimum(rng.geometric(0.4, size=count) - 1, alphabet - 1)
    return indexes.astype(np.int64)


class TestSerializerContract:
    @given(
        indexes=_index_streams(),
        layout=st.sampled_from(["u1", "<u2", "packed"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_entropy_never_larger_and_reencode_is_identity(self, indexes, layout):
        message = _index_message(indexes, layout)
        v1 = serialize_v1(message)
        v2_plain = serialize_message(message)
        v2 = serialize_message(message, entropy=True)
        assert len(v2) <= len(v2_plain) <= len(v1)
        # Plain v2 differs from v1 only by the splits arrays it drops
        # (one u64 length prefix and q + 1 f64 per part), by the means
        # it ships at 4 bytes where they are f4-exact, and by the key
        # blob it Rice-codes where that is smaller than delta-binary.
        assert len(v1) - len(v2_plain) == sum(
            8 + 8 * (part.buckets.num_buckets + 1)
            + 4 * part.buckets.num_buckets * _f4_exact(part.buckets.means)
            + len(encode_keys(part.group_keys.concat))
            - len(part.group_keys.blobs[0])
            for part in message.payload.parts
        )
        decoded = deserialize_message(v2)
        assert serialize_message(decoded, entropy=True) == v2
        assert serialize_message(decoded) == v2_plain
        assert serialize_message(
            deserialize_message(v2_plain), entropy=True
        ) == v2

    def test_wide_alphabet_keeps_the_plain_block(self):
        """b = 200 in a u1 cannot beat one byte per index."""
        indexes = np.arange(2000, dtype=np.int64) % 200
        message = _index_message(indexes, "u1")
        assert serialize_message(
            message, entropy=True
        )[6:] == serialize_message(message)[6:]

    def test_narrow_alphabet_takes_the_dense_block(self):
        indexes = np.arange(2000, dtype=np.int64) % 57
        message = _index_message(indexes, "u1")
        plain = serialize_message(message)
        dense = serialize_message(message, entropy=True)
        # 8 → 6 bits per index, minus the 4-byte block header per part.
        saved = len(plain) - len(dense)
        assert 2000 // 4 - 16 <= saved <= 2000 // 4
