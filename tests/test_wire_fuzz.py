"""Differential fuzzing of the wire stack.

Two tiers lock the protocol down:

* **Property tier** (hypothesis): randomly generated compressed
  gradients must round-trip bit-identically through
  ``serialize_message``/``deserialize_message``, contiguous and
  streamed, must never be larger than the retired payload v1
  (``tests/payload_v1_reference.py``), and the scalar twins of
  ``tests/kernel_reference.py`` must encode the same bytes; their
  ``num_bytes`` must be the payload-v2 wire length exactly; random
  frames must survive arbitrary re-chunking through
  :class:`FrameAssembler`.  Bound the example count with
  ``REPRO_FUZZ_EXAMPLES`` (CI smoke uses a small value).

* **Mutation corpus** (deterministic, seeded): 200+ adversarial
  mutations of valid wire bytes — truncations, bit-flips, length-field
  lies, forged index, sketch and Rice key blocks, one-list key blocks
  and count mismatches, duplicated/reordered/dropped chunks, lying
  ``END`` trailers, and payload-v1 messages, which are retired —
  must always surface as a structured :class:`SerializationError` /
  :class:`FrameError`; never a hang, an allocation bomb, or a
  silently-wrong tensor.  A mutant the decoder *accepts* (a bit flip
  in value data) must re-serialize to exactly the bytes it was decoded
  from — the decode is then a faithful reading of the (corrupt)
  payload, not an invention.

The corpus runs on the package's kernels (``vectorised``) and on the
scalar twins (``scalar``); the wire layer is kernel-independent by
design and this pins that claim.
"""

import os
import struct  # repro: noqa[wire-format] — fuzzing the framing layer requires crafting raw adversarial headers
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.compression.base import CompressedGradient
from repro.core.compressor import (
    GroupKeys,
    SignPart,
    SketchMLCompressor,
    SketchMLPayload,
)
from repro.core.config import SketchMLConfig
from repro.core import serialization
from repro.core.delta_encoding import encode_key_groups_flat, encode_keys
from repro.core.entropy import encode_indexes, radix_params
from repro.core.minmax_sketch import GroupedMinMaxSketch, MinMaxSketch
from repro.core.quantizer import SignedBuckets
from repro.core.rice import (
    KEY_CODE_DELTA,
    KEY_CODE_RICE,
    decode_key_parts,
    encode_key_groups_v2,
)
from repro.core.serialization import (
    MAX_MESSAGE_BYTES,
    SerializationError,
    deserialize_message,
    deserialize_message_chunks,
    iter_serialize_message,
    serialize_message,
)
from repro.runtime.framing import (
    FRAME_MAGIC,
    KIND_CHUNK,
    KIND_END,
    KIND_GRAD,
    KIND_UPDATE,
    ChunkReassembler,
    FrameAssembler,
    FrameError,
    iter_chunk_frames,
    pack_frame,
    unpack_frame,
    unpack_header,
)
from tests import rice_reference
from tests.kernel_reference import kernel_path, reference_kernels
from tests.payload_v1_reference import serialize_v1, v1_pieces

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "30"))
FUZZ = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_HEADER = struct.Struct("<4sBBHQ")  # repro: noqa[wire-format] — fuzzing the framing layer requires crafting raw adversarial headers

_VARIANTS = (
    {},                                             # full sketch
    {"enable_minmax": False},                       # quantization
    {"enable_minmax": False, "pack_index_bits": True},
    {"enable_quantization": False, "enable_minmax": False},
)


def _gradient(seed, nnz, dimension, sign_mode):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
    values = rng.laplace(scale=0.01, size=nnz)
    values[values == 0.0] = 1e-4
    if sign_mode == "pos":
        values = np.abs(values)
    return keys, values


def _compress(seed, nnz, dimension, sign_mode, variant):
    keys, values = _gradient(seed, nnz, dimension, sign_mode)
    config = SketchMLConfig.full(seed=seed, **_VARIANTS[variant])
    return SketchMLCompressor(config).compress(keys, values, dimension)


def _serialize_at(message, version):
    if version == 1:
        return serialize_v1(message)
    return serialize_message(message, entropy=True)


#: The configurations the v2-against-v1 property sweeps.
_V2_CONFIGS = {
    "full": {},
    "decay": {"compensate_decay": True},
    "tabulation": {"hash_family": "tabulation"},
    "g4": {"num_groups": 4, "num_buckets": 64},
    "quan": {"enable_minmax": False},
    "quan_packed": {"enable_minmax": False, "pack_index_bits": True},
    "keys_only": {"enable_quantization": False, "enable_minmax": False},
}


#: Magnitudes at and past float32's limits (its largest finite value is
#: ~3.4e38, its smallest subnormal ~1.4e-45), drawn with ties.
_EXTREME_MAGNITUDES = (0.0, 1e-320, 1e-44, 1e-3, 3e38, 1e300)


def _break_group_uniformity(grouped, how):
    """Swap the last group sketch for an empty one off the shared
    shape (``"shape"``) or seed stride (``"seed"``)."""
    last = grouped.sketches[-1]
    grouped._sketches[-1] = MinMaxSketch(
        num_rows=last.num_rows,
        num_bins=last.num_bins + (how == "shape"),
        index_range=last.index_range,
        seed=last._master_seed + (how == "seed"),
        hash_family=last._hash_family_name,
    )


def _bits(array):
    # Bit-for-bit comparison of 8-byte arrays (keys i8, values f8).
    return np.ascontiguousarray(array).view(np.uint64)


# ----------------------------------------------------------------------
# property tier
# ----------------------------------------------------------------------
class TestRoundTripProperties:
    @FUZZ
    @given(
        seed=st.integers(0, 2**32 - 1),
        nnz=st.integers(1, 400),
        variant=st.integers(0, len(_VARIANTS) - 1),
        sign_mode=st.sampled_from(["mixed", "pos"]),
    )
    def test_roundtrip_bit_identical_both_paths_both_versions(
        self, seed, nnz, variant, sign_mode
    ):
        dimension = max(nnz * 40, 64)
        message = _compress(seed, nnz, dimension, sign_mode, variant)
        v1, v2 = (_serialize_at(message, v) for v in (1, 2))
        # The scalar twins agree byte-for-byte at each payload version.
        with reference_kernels():
            reference = _compress(seed, nnz, dimension, sign_mode, variant)
            assert (_serialize_at(reference, 1), _serialize_at(reference, 2)) == (
                v1, v2
            )
        # deserialize → serialize is the identity.
        assert _serialize_at(deserialize_message(v2), 2) == v2

    @FUZZ
    @given(
        seed=st.integers(0, 2**32 - 1),
        nnz=st.integers(1, 20_000),
        config=st.sampled_from(sorted(_V2_CONFIGS)),
    )
    def test_v2_is_never_larger_than_v1(self, seed, nnz, config):
        dimension = max(nnz * 40, 64)
        keys, values = _gradient(seed, nnz, dimension, "mixed")
        cfg = SketchMLConfig.full(seed=seed, **_V2_CONFIGS[config])
        comp = SketchMLCompressor(cfg)
        message = comp.compress(keys, values, dimension)
        v1, v2 = (_serialize_at(message, v) for v in (1, 2))
        assert len(v2) <= len(v1)
        assert _serialize_at(deserialize_message(v2), 2) == v2
        for a, b in zip(comp.decompress(deserialize_message(v2)),
                        comp.decompress(message)):
            assert np.array_equal(_bits(a), _bits(b))
        with reference_kernels():
            reference = SketchMLCompressor(cfg).compress(keys, values, dimension)
            assert (_serialize_at(reference, 1), _serialize_at(reference, 2)) == (
                v1, v2
            )
        # A grouped sketch off the shared shape or seed stride has no
        # layout: it must raise.
        grouped = next(
            (p.sketch for p in message.payload.parts
             if p.sketch is not None and p.sketch.num_groups > 1),
            None,
        )
        if grouped is None:
            return
        uniform = list(grouped.sketches)
        for how in ("shape", "seed"):
            _break_group_uniformity(grouped, how)
            with pytest.raises(SerializationError, match=how):
                _serialize_at(message, 2)
            grouped._sketches[:] = uniform

    @FUZZ
    @given(
        magnitudes=st.lists(
            st.sampled_from(_EXTREME_MAGNITUDES), min_size=1, max_size=400
        ),
        seed=st.integers(0, 2**32 - 1),
        config=st.sampled_from(["full", "quan", "quan_packed"]),
    )
    @example(magnitudes=[1e-320] * 40 + [3e38] * 3, seed=0, config="quan")
    @example(magnitudes=[0.0, 1e-44, 1e300] * 30, seed=1, config="full")
    def test_extreme_magnitudes_keep_sign_bound_and_v2_never_larger(
        self, magnitudes, seed, config
    ):
        """Tables float32 cannot carry keep f8 means; whatever the
        width, decoding never flips a sign or amplifies past the
        largest input, and v2 is never larger than v1."""
        rng = np.random.default_rng(seed)
        values = np.asarray(magnitudes) * rng.choice([-1.0, 1.0], len(magnitudes))
        dimension = 40 * values.size + 64
        keys = np.sort(rng.choice(dimension, size=values.size, replace=False))
        comp = SketchMLCompressor(
            SketchMLConfig.full(seed=seed, **_V2_CONFIGS[config])
        )
        message = comp.compress(keys, values, dimension)
        v1, v2 = (_serialize_at(message, v) for v in (1, 2))
        assert len(v2) <= len(v1)
        out_keys, out_values = comp.decompress(deserialize_message(v2))
        assert np.array_equal(out_keys, keys)
        assert np.all(out_values * np.sign(values) >= 0)
        assert np.all(np.abs(out_values) <= np.abs(values).max())

    @FUZZ
    @given(
        seed=st.integers(0, 2**32 - 1),
        nnz=st.integers(0, 20_000),
        config=st.sampled_from(sorted(_V2_CONFIGS)),
    )
    def test_num_bytes_is_the_v2_wire_length(self, seed, nnz, config):
        dimension = max(nnz * 40, 64)
        keys, values = _gradient(seed, nnz, dimension, "mixed")
        cfg = SketchMLConfig.full(seed=seed, **_V2_CONFIGS[config])
        message = SketchMLCompressor(cfg).compress(keys, values, dimension)
        wire = serialize_message(message)
        assert message.num_bytes == len(wire)
        assert sum(message.breakdown.values()) == message.num_bytes

    @FUZZ
    @given(
        seed=st.integers(0, 2**32 - 1),
        nnz=st.integers(1, 400),
        variant=st.integers(0, len(_VARIANTS) - 1),
        entropy=st.booleans(),
        chunk_bytes=st.integers(16, 4096),
    )
    def test_streaming_encode_decode_matches_contiguous(
        self, seed, nnz, variant, entropy, chunk_bytes
    ):
        dimension = max(nnz * 40, 64)
        message = _compress(seed, nnz, dimension, "mixed", variant)
        contiguous = serialize_message(message, entropy=entropy)
        pieces = list(
            iter_serialize_message(
                message, entropy=entropy, chunk_bytes=chunk_bytes
            )
        )
        assert all(len(p) <= chunk_bytes for p in pieces)
        assert b"".join(pieces) == contiguous
        streamed = deserialize_message_chunks(pieces)
        assert serialize_message(streamed, entropy=entropy) == contiguous

    def test_200k_nnz_streams_in_64k_chunks_bit_identical(self):
        """The acceptance-scale case, pinned deterministically: a
        200k-nnz gradient streamed in ≤64 KiB chunks decodes to the
        exact contiguous encoding."""
        message = _compress(97, 200_000, 2_000_000, "mixed", 0)
        contiguous = serialize_message(message)
        chunk_bytes = 64 * 1024
        assert len(contiguous) > chunk_bytes  # actually exercises chunking
        pieces = list(
            iter_serialize_message(message, chunk_bytes=chunk_bytes)
        )
        assert all(len(p) <= chunk_bytes for p in pieces)
        streamed = deserialize_message_chunks(pieces)
        assert serialize_message(streamed) == contiguous

    @FUZZ
    @given(
        payload=st.binary(max_size=2048),
        kind=st.sampled_from([KIND_GRAD, KIND_UPDATE]),
        sender=st.integers(0, 0xFFFF),
        version=st.sampled_from([1, 2]),
        splits=st.lists(st.integers(1, 64), max_size=24),
    )
    def test_frame_survives_arbitrary_rechunking(
        self, payload, kind, sender, version, splits
    ):
        frame = pack_frame(kind, sender, payload, version=version)
        assembler = FrameAssembler()
        out = []

        def drain():
            while True:
                got = assembler.next_frame()
                if got is None:
                    return
                out.append(got)

        pos = 0
        for step in splits:
            assembler.feed(frame[pos:pos + step])
            pos += step
            drain()
        assembler.feed(frame[pos:])
        drain()
        assert len(out) == 1
        got_kind, got_sender, got_payload = unpack_frame(out[0])
        assert (got_kind, got_sender, bytes(got_payload)) == (
            kind, sender, payload
        )


# ----------------------------------------------------------------------
# mutation corpus
# ----------------------------------------------------------------------
def _base_messages():
    """Two fixed, deterministic messages whose wire bytes are mutated:
    the packed quantization config at v1 and at v2 (the v2 bytes exercise the
    dense-coded index block, marker 4).  The v1 bytes come from the
    reference writer; every mutation of them must fail, and they keep
    drawing their truncation and bit-flip positions first, so the v2
    positions below stay where they were.

    The v2 base is a larger gradient than the v1 base, and its parts
    ship Rice-coded keys (key kind 2): 1 304 nnz over 245 853 keys code
    to exactly the 3 794 bytes the 900-nnz base took at v2 before v2
    dropped the bucket splits, with every length field the length-lie
    scan below hits at its old offset, so the seeded truncation and
    bit-flip positions drawn below, and the case ids they name, stay
    where they were.  (Offset 42, inside a delta-binary key blob's
    count and flags, has no length-like counterpart in a Rice blob.)
    Its magnitudes are scaled to ~1e-302, below float32's range, so
    both bucket tables keep f8 means and that layout holds; the f4
    tables are mutated in ``_bucket_means_cases``."""
    keys, values = _gradient(1234, 1304, 245853, "mixed")
    config = SketchMLConfig.full(seed=1234, **_VARIANTS[2])
    return {
        1: _compress(1234, 900, 40000, "mixed", 2),
        2: SketchMLCompressor(config).compress(keys, values * 1e-300, 245853),
    }


_BASE_MESSAGES = _base_messages()
_BASES = {v: _serialize_at(m, v) for v, m in _BASE_MESSAGES.items()}
_RNG = np.random.default_rng(20260809)


def _truncation_cases():
    cases = []
    for version, data in _BASES.items():
        for cut in sorted(
            _RNG.choice(np.arange(1, len(data)), size=35, replace=False)
        ):
            cases.append(
                (f"trunc-v{version}-at{cut}", data[:int(cut)])
            )
    return cases


def _bitflip_cases():
    cases = []
    for version, data in _BASES.items():
        positions = _RNG.choice(len(data) * 8, size=40, replace=False)
        for pos in sorted(int(p) for p in positions):
            mutated = bytearray(data)
            mutated[pos // 8] ^= 1 << (pos % 8)
            cases.append((f"flip-v{version}-bit{pos}", bytes(mutated)))
    return cases


def _u64_fields(message, version):
    """Offsets of the 8-byte fields the writer emits after the message
    header: part nnz and length prefixes."""
    if version == 1:
        pieces = v1_pieces(message)
    else:
        pieces = serialization._build_message(message, True).pieces()
    ends = np.cumsum([0] + [len(piece) for piece in pieces]).tolist()
    return [lo for lo, hi in zip(ends, ends[1:]) if hi - lo == 8 and lo >= 23]


def _length_lie_cases():
    """Overwrite genuine length/count fields with absurd u64 values."""
    cases = []
    lies = (1 << 40, 1 << 50, (1 << 64) - 1, 1 << 63)
    for version, data in _BASES.items():
        # The message nnz u64 sits at header offset 14 (see
        # serialization.py) and bounds every allocation downstream.
        for lie in lies:
            mutated = bytearray(data)
            mutated[14:22] = struct.pack("<Q", lie)  # repro: noqa[wire-format] — crafting adversarial length fields is the point of this corpus
            cases.append(
                (f"lie-v{version}-nnz-{lie:#x}", bytes(mutated))
            )
        # Length-prefixed fields in the body: scan the u64 fields the
        # writer emitted (part nnz and length prefixes) for values that
        # look like genuine lengths/counts and inflate them.  Keep the
        # candidates the decoder is *supposed* to reject — if a later
        # change drops the budget checks, these become terabyte
        # allocations and the corpus fails loudly.
        hits = 0
        for offset in _u64_fields(_BASE_MESSAGES[version], version):
            (value,) = struct.unpack_from("<Q", data, offset)  # repro: noqa[wire-format] — scanning for length fields to corrupt
            if not 16 <= value <= len(data):
                continue
            mutated = bytearray(data)
            mutated[offset:offset + 8] = struct.pack("<Q", 1 << 44)  # repro: noqa[wire-format] — crafting adversarial length fields is the point of this corpus
            try:
                deserialize_message(bytes(mutated))
            except SerializationError:
                hits += 1
                cases.append(
                    (f"lie-v{version}-body{offset}", bytes(mutated))
                )
            if hits >= 6:
                break
    return cases


def _blob_count_cases():
    """A sketch part re-serialized with a group key blob too many or
    too few: the u8 blob count and the grouped-sketch group count are
    separate wire fields, and the decoder must not trust them to agree
    (9 blobs used to escape as a bare IndexError from decompress, 7
    silently dropped a group's keys)."""
    cases = []
    for label, forge in (
        ("9-blobs", lambda blobs: blobs + [blobs[-1]]),
        ("7-blobs", lambda blobs: blobs[:-1]),
    ):
        message = _compress(1234, 2000, 40000, "mixed", 0)
        part = message.payload.parts[0]
        keys = part.group_keys
        assert part.sketch.num_groups == len(keys.blobs) == 8
        # Forged blobs in the code each version's writer copies: the v2
        # blobs as coded, delta-binary ones for v1.
        forged = {
            1: replace(keys, code=KEY_CODE_DELTA, blobs=forge(
                encode_key_groups_flat(keys.concat, keys.counts))),
            2: replace(keys, blobs=forge(list(keys.blobs))),
        }
        for version in (1, 2):
            part.group_keys = forged[version]
            cases.append(
                (f"sketch-v{version}-{label}", _serialize_at(message, version))
            )
    return cases


def _forge_index_message(
    block, nnz, *, flags=2, num_keys=None, message_nnz=None, rice_keys=False,
):
    """A one-part kind-1 message around a hand-built index block:
    ``num_keys`` keys (default: one per index), raw or, with
    ``rice_keys``, one Rice blob (key kind 2), a one-bucket table, then
    ``block`` verbatim where the index marker goes."""
    num_keys = nnz if num_keys is None else num_keys
    message_nnz = nnz if message_nnz is None else message_nnz
    w = bytearray()
    w += b"SKML" + struct.pack("<BB", 2, flags)  # repro: noqa[wire-format] — forging adversarial index blocks is the point of this corpus
    w += struct.pack("<QQB", 1 << 31, message_nnz, 1)  # repro: noqa[wire-format] — dimension, message nnz, one part
    w += struct.pack("<bQB", 1, nnz, 1)  # repro: noqa[wire-format] — sign, part nnz, kind=indexes
    keys_at = len(w)
    w += struct.pack("<BQ", 0, 4 * num_keys)  # repro: noqa[wire-format] — raw key stream
    w += np.arange(num_keys, dtype="<u4").tobytes()  # repro: noqa[wire-format] — the keys
    if rice_keys:  # the same keys as one Rice blob, key kind 2
        blob = rice_reference.encode_group(range(num_keys))
        w[keys_at:] = bytes([2]) + len(blob).to_bytes(8, "little") + blob
    buckets = serialization._Writer()
    serialization._write_buckets(buckets, SignedBuckets(
        splits=None, means=np.array([0.5]), sign=1.0,
    ))
    return bytes(w + buckets.getvalue() + block)


def _dense_block(origin, width, num_symbols, blob, marker=4):
    return (
        struct.pack("<BBBH", marker, origin, width, num_symbols)  # repro: noqa[wire-format] — marker, origin, width, alphabet
        + struct.pack("<Q", len(blob)) + blob  # repro: noqa[wire-format] — length-prefixed coded words
    )


#: 9 symbols over a 57-symbol alphabet: (k, wb) = (4, 3), so three
#: words, the last one holding one digit and three padding digits.
_DENSE_RADIX = 57
_DENSE_SYMBOLS = np.array([56, 0, 13, 55, 1, 2, 3, 4, 9], dtype=np.uint8)
_DENSE_BLOB = encode_indexes(_DENSE_SYMBOLS, _DENSE_RADIX)


def _dense_word(digits, radix=_DENSE_RADIX, width=3):
    value = 0
    for d in digits:
        value = value * radix + d
    return value.to_bytes(width, "little")


def _dense_block_cases():
    """Forged marker-4 parts: every decode check of the dense radix
    block, one mutation each (the unmutated block decodes — see
    ``test_forged_dense_baseline_decodes``)."""
    assert radix_params(_DENSE_RADIX) == (4, 3)
    n = _DENSE_SYMBOLS.size
    blob = _DENSE_BLOB

    def forge(coded=blob, *, origin=0, width=1, num_symbols=_DENSE_RADIX,
              marker=4, nnz=n, **message):
        return _forge_index_message(
            _dense_block(origin, width, num_symbols, coded, marker=marker),
            nnz, **message,
        )

    return [
        ("dense-blob-short", forge(blob[:-1])),
        ("dense-blob-long", forge(blob + b"\x00")),
        ("dense-word-out-of-range",
         forge(blob[:3] + (_DENSE_RADIX ** 4).to_bytes(3, "little") + blob[6:])),
        ("dense-nonzero-padding", forge(blob[:6] + _dense_word([9, 0, 0, 1]))),
        ("dense-alphabet-empty", forge(num_symbols=0)),
        # Valid words for base 58, but no symbol reaches 57.
        ("dense-alphabet-loose",
         forge(encode_indexes(_DENSE_SYMBOLS, _DENSE_RADIX + 1),
               num_symbols=_DENSE_RADIX + 1)),
        ("dense-alphabet-over-u1", forge(num_symbols=300)),
        ("dense-alphabet-over-pack-width", forge(origin=1, width=5)),
        ("dense-bad-origin", forge(origin=2)),
        # The keys justify nnz + 4, the coded words do not.
        ("dense-nnz-lie", forge(nnz=n + 4)),
        ("dense-empty-stream", forge(b"", nnz=0)),
        ("dense-part-nnz-over-message", forge(message_nnz=n - 1)),
        ("rans-marker-retired", forge(marker=3)),
    ]


_DENSE_CASES = _dense_block_cases()


#: A two-group sketch part small enough to forge by hand: 16 buckets
#: over 2 groups gives a group index range of 8, so a cell is one of 9
#: symbols (offsets 0…7, 8 = empty).  2 rows x 3 bins per group make 12
#: cells, coded by radix_params(9) = (5, 2) into three 2-byte words,
#: the last holding two cells and three padding digits.
_SKETCH_GIR = 8
_SKETCH_KEYS = ((3, 17, 40), (5, 21))
_SKETCH_OFFSETS = ((0, 7, 2), (4, 1))
_SKETCH_MEANS = np.linspace(0.05, 1.55, 16)


def _sketch_message():
    grouped = GroupedMinMaxSketch(
        num_groups=2, index_range=16, num_rows=2, total_bins=6, seed=5
    )
    for g, (keys, offsets) in enumerate(zip(_SKETCH_KEYS, _SKETCH_OFFSETS)):
        grouped.insert_group(g, np.asarray(keys), np.asarray(offsets))
    part = SignPart(
        sign=1,
        nnz=5,
        buckets=SignedBuckets(
            splits=np.linspace(0.0, 1.6, 17), means=_SKETCH_MEANS, sign=1.0
        ),
        group_keys=GroupKeys.coded(
            np.concatenate(_SKETCH_KEYS), np.array([len(k) for k in _SKETCH_KEYS])
        ),
        sketch=grouped,
    )
    return CompressedGradient(
        payload=SketchMLPayload(parts=[part]), num_bytes=0, dimension=64,
        nnz=5,
    )


#: The coded cell stream (three 2-byte words) the v2 writer emits for
#: ``_sketch_message``; it ends the message.
_SKETCH_CELLS = serialize_message(_sketch_message())[-6:]

_V1_BUCKETS = (
    struct.pack("<HbQ", 16, 1, 17 * 8)  # repro: noqa[wire-format] — forging a v1 bucket block: count, sign, splits length
    + np.linspace(0.0, 1.6, 17).astype("<f8").tobytes()  # repro: noqa[wire-format] — the splits v2 no longer ships
    + struct.pack("<Q", 16 * 8)  # repro: noqa[wire-format] — means length
    + _SKETCH_MEANS.astype("<f8").tobytes()  # repro: noqa[wire-format] — the means
)


def _forge_sketch_message(cells=_SKETCH_CELLS, *, num_groups=2, rows=2,
                          bins=3, gir=_SKETCH_GIR, family=0, cell_width=1,
                          buckets=None):
    """A one-part v2 kind-2 message around a hand-built sketch block;
    unmutated it is byte-identical to the writer's output for
    ``_sketch_message`` (``test_forged_sketch_baseline_decodes``).  Its
    five keys code to as many Rice bytes as delta-binary bytes, so the
    part keeps delta-binary blobs (key code 0)."""
    if buckets is None:
        buckets = (
            struct.pack("<HbQ", 16, 1, 16 * 8)  # repro: noqa[wire-format] — v2 bucket block: count, sign, means length
            + _SKETCH_MEANS.astype("<f8").tobytes()  # repro: noqa[wire-format] — the means
        )
    w = bytearray(b"SKML" + struct.pack("<BB", 2, 0))  # repro: noqa[wire-format] — forging adversarial sketch blocks is the point of this corpus
    w += struct.pack("<QQB", 64, 5, 1)  # repro: noqa[wire-format] — dimension, message nnz, one part
    w += struct.pack("<bQB", 1, 5, 2)  # repro: noqa[wire-format] — sign, part nnz, kind=sketch
    w += buckets
    w += struct.pack("<BB", len(_SKETCH_KEYS), 0)  # repro: noqa[wire-format] — key blob count, key code (delta-binary)
    for keys in _SKETCH_KEYS:
        blob = encode_keys(np.asarray(keys))
        w += struct.pack("<Q", len(blob)) + blob  # repro: noqa[wire-format] — length-prefixed group key blob
    w += struct.pack("<BI", num_groups, 16)  # repro: noqa[wire-format] — groups, bucket range
    w += struct.pack("<BIIqBB", rows, bins, gir, 5, family, cell_width)  # repro: noqa[wire-format] — the shared sketch header
    return bytes(w + cells)


def _sketch_block_cases():
    """Forged v2 kind-2 parts: every decode check of the shared sketch
    header and its cell stream, one mutation each."""
    assert radix_params(_SKETCH_GIR + 1) == (5, 2)
    cells = _SKETCH_CELLS
    forge = _forge_sketch_message
    return [
        ("sketch-v2-cells-short", forge(cells[:-1])),
        ("sketch-v2-cells-long", forge(cells + b"\x00")),
        ("sketch-v2-word-out-of-range",
         forge((9 ** 5).to_bytes(2, "little") + cells[2:])),
        ("sketch-v2-nonzero-padding",
         forge(cells[:4] + _dense_word([8, 8, 0, 0, 1], radix=9, width=2))),
        # 255 x 255 x (2**32 - 1) cells: a petabyte-scale table if the
        # header were trusted before it is checked against the bytes.
        ("sketch-v2-cells-over-remaining",
         forge(num_groups=255, rows=255, bins=2 ** 32 - 1)),
        ("sketch-v2-cell-width-mismatch", forge(cell_width=2)),
        ("sketch-v2-group-range-empty", forge(gir=0)),
        ("sketch-v2-unknown-family", forge(family=2)),
        ("sketch-v2-splits-in-bucket-block", forge(buckets=_V1_BUCKETS)),
    ]


_SKETCH_CASES = _sketch_block_cases()


def _rice_base():
    """A full-SketchML message whose first part ships Rice key blobs."""
    message = _compress(1234, 2000, 40000, "mixed", 0)
    part = message.payload.parts[0]
    assert part.group_keys.code == KEY_CODE_RICE
    return message, part


def _rice_layout(blob):
    """``(k bytes, low-stream bits, end of the low stream)`` of a blob."""
    n = int.from_bytes(blob[:4], "little")
    ks = blob[4:4 + -(-n // 64)]
    low_bits = sum(min(64, n - 64 * b) * k for b, k in enumerate(ks))
    return ks, low_bits, 4 + len(ks) + -(-low_bits // 8)


def _forge_rice(forge_group, *, group=0):
    """The Rice base at v2 with one group's blob replaced by
    ``forge_group(blob, group_keys)``."""
    message, part = _rice_base()
    keys = part.group_keys
    start = int(keys.counts[:group].sum())
    group_keys = keys.concat[start:start + int(keys.counts[group])].tolist()
    blobs = list(keys.blobs)
    blobs[group] = forge_group(blobs[group], group_keys)
    part.group_keys = replace(keys, blobs=blobs)
    return _serialize_at(message, 2)


def _padded_group():
    """A group of the Rice base whose low stream ends mid-byte."""
    _, part = _rice_base()
    return next(
        g for g, blob in enumerate(part.group_keys.blobs)
        if _rice_layout(blob)[1] % 8
    )


def _with_key_code(message, part, key_code, blobs):
    part.group_keys = replace(part.group_keys, code=key_code, blobs=blobs)
    return _serialize_at(message, 2)


def _extra_terminator(blob, _):
    # Set the lowest clear bit of the first unary byte that has one.
    low_end = _rice_layout(blob)[2]
    at = next(i for i in range(low_end, len(blob)) if blob[i] != 0xFF)
    byte = blob[at] | (blob[at] + 1)
    return blob[:at] + bytes([byte & 0xFF]) + blob[at + 1:]


def _rice_block_cases():
    """Forged v2 kind-2 key blobs: every check of the Rice decoder and
    of the part's key code, one mutation each (the unmutated base
    decodes — see ``test_rice_baseline_decodes``)."""
    base, base_part = _rice_base()
    delta_blobs = encode_key_groups_flat(
        base_part.group_keys.concat, base_part.group_keys.counts
    )
    tiny = _sketch_message()
    tiny_rice = [rice_reference.encode_group(k) for k in _SKETCH_KEYS]
    padded = _padded_group()
    return [
        ("rice-count-lie", _forge_rice(
            lambda blob, _: (8 * len(blob) + 1).to_bytes(4, "little") + blob[4:])),
        ("rice-k-over-31", _forge_rice(
            lambda blob, _: blob[:4] + bytes([32]) + blob[5:])),
        ("rice-k-not-minimal", _forge_rice(
            lambda blob, keys: rice_reference.encode_group(
                keys, [_rice_layout(blob)[0][0] + 1] + list(_rice_layout(blob)[0][1:])
            ))),
        ("rice-low-short", _forge_rice(
            lambda blob, _: blob[:_rice_layout(blob)[2] - 1])),
        # One more byte where the low stream ends shifts a 1 into the
        # unary stream: one terminator too many.
        ("rice-low-long", _forge_rice(
            lambda blob, _: blob[:_rice_layout(blob)[2]] + b"\x01"
            + blob[_rice_layout(blob)[2]:])),
        ("rice-low-padding", _forge_rice(
            lambda blob, _: blob[:_rice_layout(blob)[2] - 1]
            + bytes([blob[_rice_layout(blob)[2] - 1] | 0x80])
            + blob[_rice_layout(blob)[2]:],
            group=padded)),
        ("rice-extra-terminator", _forge_rice(_extra_terminator)),
        ("rice-trailing-zero", _forge_rice(lambda blob, _: blob + b"\x00")),
        ("rice-key-2^32", _forge_rice(
            lambda blob, _: rice_reference.encode_group([2**32]))),
        ("rice-code-delta-for-rice-keys", _with_key_code(
            base, base_part, KEY_CODE_DELTA, delta_blobs)),
        ("rice-code-rice-for-delta-keys", _with_key_code(
            tiny, tiny.payload.parts[0], KEY_CODE_RICE, tiny_rice)),
        ("rice-code-unknown", _with_key_code(
            *_rice_base(), 2, list(_rice_base()[1].group_keys.blobs))),
    ]


_RICE_CASES = _rice_block_cases()


#: Variants whose parts have one key list: raw values (kind 0) and
#: plain bucket indexes (kind 1).
_KEY_LIST_VARIANTS = {"raw": 3, "indexes": 1}


def _key_list_message(kind):
    """A message of kind-0 or kind-1 parts that ship Rice keys at v2."""
    message = _compress(4321, 600, 120_000, "mixed", _KEY_LIST_VARIANTS[kind])
    assert all(
        part.group_keys.code == KEY_CODE_RICE for part in message.payload.parts
    )
    return message


def _forge_key_list(kind, mutate):
    """A kind-0/1 message, ``mutate(message, first part)``, then written
    at v2 (plain indexes, no ``ENTROPY`` flag)."""
    message = _key_list_message(kind)
    mutate(message, message.payload.parts[0])
    return serialize_message(message)


def _set_keys(code, blob_of):
    """A mutation giving the part ``blob_of(keys)`` in key code ``code``."""
    def mutate(_, part):
        keys = part.group_keys
        part.group_keys = replace(keys, code=code, blobs=[blob_of(keys.concat)])
    return mutate


def _grow_nnz(message, part):
    part.nnz += 1
    message.nnz += 1


def _key_list_cases():
    """Forged kind-0/1 key blocks and part counts: every check of a
    one-list key block and of the parts' nnz, one mutation each (the
    unmutated messages decode — see
    ``test_rice_keyed_key_lists_decode``)."""
    # Four keys whose Rice blob is no smaller than their delta-binary one.
    tiny = _compress(5, 4, 4_000, "mixed", 3)
    assert tiny.payload.parts[0].group_keys.code == KEY_CODE_DELTA
    _set_keys(KEY_CODE_RICE, rice_reference.encode_group)(tiny, tiny.payload.parts[0])

    def count_minus_one(keys):
        blob = rice_reference.encode_group(keys)
        return (len(keys) - 1).to_bytes(4, "little") + blob[4:]

    def drop_index(_, part):
        part.indexes = part.indexes[:-1]

    def drop_value(_, part):
        part.raw_values = part.raw_values[:-1]

    sketch = _compress(1234, 2000, 40000, "mixed", 0)
    _grow_nnz(sketch, sketch.payload.parts[0])
    return [
        ("keys-rice-not-smaller", serialize_message(tiny)),
        ("keys-delta-where-rice-smaller",
         _forge_key_list("raw", _set_keys(KEY_CODE_DELTA, encode_keys))),
        ("keys-rice-truncated", _forge_key_list("indexes", _set_keys(
            KEY_CODE_RICE, lambda keys: rice_reference.encode_group(keys)[:-1]))),
        ("keys-rice-count-not-nnz",
         _forge_key_list("indexes", _set_keys(KEY_CODE_RICE, count_minus_one))),
        ("raw-values-short", _forge_key_list("raw", drop_value)),
        ("indexes-short", _forge_key_list("indexes", drop_index)),
        ("raw-part-nnz-lie", _forge_key_list("raw", _grow_nnz)),
        ("sketch-part-nnz-lie", serialize_message(sketch)),
        ("parts-short-of-message-nnz", _forge_key_list(
            "indexes", lambda message, _: setattr(message, "nnz", message.nnz + 1))),
    ]


_KEY_LIST_CASES = _key_list_cases()


def _writer_sections(message):
    """``(first byte, end byte, section)`` of every run of the message's
    bytes the writer tallies under one section."""
    w = serialization._build_message(message, True)
    ends = np.cumsum([0] + [len(piece) for piece in w.pieces()])
    marks = w._marks + [(len(w.pieces()), None)]
    return [
        (int(ends[start]), int(ends[stop]), name)
        for (start, name), (stop, _) in zip(marks, marks[1:])
        if ends[stop] > ends[start]
    ]


def _sketch_length_lie_cases(message=None, label="sketch"):
    """Length lies in a full-SketchML v2 message, the layout payload-v2
    work keeps changing: each case is named by the writer section its
    field sits in plus an ordinal within that section, not by its byte
    offset, so a section that shrinks cannot rename the cases after it."""
    if message is None:
        message = _compress(1234, 2000, 40000, "mixed", 0)
    data = _serialize_at(message, 2)
    sections = _writer_sections(message)
    cases = []
    seen = {}
    for offset in range(23, len(data) - 8):
        (value,) = struct.unpack_from("<Q", data, offset)  # repro: noqa[wire-format] — scanning for length fields to corrupt
        if not 16 <= value <= len(data):
            continue
        mutated = bytearray(data)
        mutated[offset:offset + 8] = struct.pack("<Q", 1 << 44)  # repro: noqa[wire-format] — crafting adversarial length fields is the point of this corpus
        try:
            deserialize_message(bytes(mutated))
        except SerializationError:
            section = next(n for lo, hi, n in sections if lo <= offset < hi)
            ordinal = seen.get(section, 0)
            seen[section] = ordinal + 1
            cases.append((f"lie-v2-{label}-{section}{ordinal}", bytes(mutated)))
        if len(cases) >= 6:
            break
    return cases


# ----------------------------------------------------------------------
# bucket means
# ----------------------------------------------------------------------
def _f4_exact(means):
    return bool(np.array_equal(means.astype(np.float32), means))


def _mixed_width_message():
    """A full-SketchML message with one table of each v2 width: the
    positive part's means are f4-exact and ship at 4 bytes, the negative
    part's, fitted to magnitudes ~1e-302 (below float32's range), keep
    8 bytes."""
    keys, values = _gradient(2468, 1500, 60000, "mixed")
    values[values < 0] *= 1e-300
    config = SketchMLConfig.full(seed=2468)
    return SketchMLCompressor(config).compress(keys, values, 60000)


_MIXED = _mixed_width_message()


def _forge_means(part, width, change=None, *, extra=0):
    """The mixed message with part ``part``'s means blob replaced: its
    table after ``change`` (in place), shipped at ``width`` bytes a
    mean, ``extra`` bytes longer (or shorter)."""
    data = _serialize_at(_MIXED, 2)
    end = [
        hi for _, hi, name in _writer_sections(_MIXED)
        if name == "bucket_means"
    ][part]
    means = _MIXED.payload.parts[part].buckets.means.copy()
    shipped = 4 if _f4_exact(means) else 8
    start = end - shipped * means.size - 8  # the length prefix
    if change is not None:
        change(means)
    w = serialization._Writer()
    w.array(means.astype(f"<f{width}"))
    blob = w.pieces()[1]
    blob = blob + bytes(extra) if extra >= 0 else blob[:extra]
    return data[:start] + len(blob).to_bytes(8, "little") + blob + data[end:]


def _set(index, value):
    def change(means):
        means[index] = value
    return change


def _negate(means):
    means *= -1


def _reverse(means):
    means[:] = means[::-1].copy()


def _bucket_means_cases():
    """Forged bucket-means blobs in ``_MIXED`` (part 0 ships f4 means,
    part 1 f8): every reader check of a bucket table's means, one
    mutation each (the unmutated message decodes — see
    ``test_mixed_width_means_decode``)."""
    return [
        ("means-v2-f4-nan", _forge_means(0, 4, _set(3, np.nan))),
        ("means-v2-f8-inf", _forge_means(1, 8, _set(-1, np.inf))),
        ("means-v2-f4-negative", _forge_means(0, 4, _set(0, -1.0))),
        ("means-v2-f8-negative", _forge_means(1, 8, _negate)),
        ("means-v2-f4-decreasing", _forge_means(0, 4, _reverse)),
        ("means-v2-f8-decreasing", _forge_means(1, 8, _reverse)),
        ("means-v2-f4-blob-long", _forge_means(0, 4, extra=1)),
        ("means-v2-f4-blob-short", _forge_means(0, 4, extra=-1)),
        ("means-v2-f4-exact-as-f8", _forge_means(0, 8)),
    ]


_BUCKET_MEANS_CASES = _bucket_means_cases()


def _bucket_means_flips():
    """Bit flips in each of ``_MIXED``'s v2 means blobs — a mantissa's
    lowest bit, an exponent bit and the sign bit of the middle mean."""
    data = _serialize_at(_MIXED, 2)
    ends = [
        hi for _, hi, name in _writer_sections(_MIXED)
        if name == "bucket_means"
    ]
    cases = []
    for part, end in enumerate(ends):
        means = _MIXED.payload.parts[part].buckets.means
        width = 4 if _f4_exact(means) else 8
        at = end - width * (means.size - means.size // 2)
        for bit in (0, 8 * width - 2, 8 * width - 1):
            mutated = bytearray(data)
            mutated[at + bit // 8] ^= 1 << (bit % 8)
            cases.append(
                (f"flip-v2-mixed-means{part}-bit{bit}", bytes(mutated))
            )
    return cases


def _retired_cases():
    """Payload v1 is retired: a committed v1 golden fixture, and v2
    bytes whose header declares v1, are rejected at the version byte."""
    with open(os.path.join(
        os.path.dirname(__file__), "golden", "wire", "quan_packed.bin"
    ), "rb") as f:
        golden = f.read()
    forged = bytearray(_serialize_at(_MIXED, 2))
    forged[4] = 1
    return [("v1-golden-fixture", golden), ("v1-forged-header", bytes(forged))]


_RETIRED_CASES = _retired_cases()

MUST_FAIL_CASES = (
    _truncation_cases() + _length_lie_cases() + _sketch_length_lie_cases()
    + _blob_count_cases() + _DENSE_CASES + _SKETCH_CASES + _RICE_CASES
    + _KEY_LIST_CASES + _BUCKET_MEANS_CASES
    + _sketch_length_lie_cases(_MIXED, "mixed") + _RETIRED_CASES
)
MAY_ACCEPT_CASES = _bitflip_cases() + _bucket_means_flips()


@pytest.mark.parametrize("mode", ["scalar", "vectorised"])
@pytest.mark.parametrize(
    "data", [c[1] for c in MUST_FAIL_CASES],
    ids=[c[0] for c in MUST_FAIL_CASES],
)
def test_corrupt_bytes_always_raise_structured_error(data, mode):
    with kernel_path(mode):
        with pytest.raises(SerializationError):
            deserialize_message(data)


@pytest.mark.parametrize("mode", ["scalar", "vectorised"])
@pytest.mark.parametrize(
    "data", [c[1] for c in MAY_ACCEPT_CASES],
    ids=[c[0] for c in MAY_ACCEPT_CASES],
)
def test_bit_flips_never_decode_silently_wrong(data, mode):
    """A flipped bit either raises the structured error or lands in
    value data — in which case the decode must be a *faithful* reading:
    re-serializing it reproduces the mutated bytes exactly."""
    with kernel_path(mode):
        try:
            message = deserialize_message(data)
        except SerializationError:
            return
        assert serialize_message(message, entropy=bool(data[5] & 2)) == data


def test_forged_dense_baseline_decodes():
    """The unmutated forged block decodes to its symbols — the cases
    above fail for the mutation, not because the forgery is broken."""
    data = _forge_index_message(
        _dense_block(0, 1, _DENSE_RADIX, _DENSE_BLOB), _DENSE_SYMBOLS.size
    )
    message = deserialize_message(data)
    part = message.payload.parts[0]
    assert np.array_equal(part.indexes, _DENSE_SYMBOLS)
    assert part.indexes.dtype == np.uint8


@pytest.mark.parametrize(
    "case, pattern",
    [
        ("dense-blob-short", "code to"),
        ("dense-blob-long", "code to"),
        ("dense-word-out-of-range", "not below"),
        ("dense-nonzero-padding", "padding"),
        ("dense-alphabet-empty", "empty index alphabet"),
        ("dense-alphabet-loose", "wider than"),
        ("dense-alphabet-over-u1", "index width"),
        ("dense-alphabet-over-pack-width", "pack width"),
        ("dense-nnz-lie", "code to"),
        ("dense-empty-stream", "wider than"),
        ("rans-marker-retired", "marker 3.*retired"),
    ],
)
def test_forged_dense_blocks_fail_on_the_intended_check(case, pattern):
    data = dict(_DENSE_CASES)[case]
    with pytest.raises(SerializationError, match=pattern):
        deserialize_message(data)


def test_forged_sketch_baseline_decodes():
    """The unmutated forged sketch block is exactly what the writer
    emits, decodes to the inserted tables and decompresses to the
    inserted bucket means — the cases below fail for the mutation, not
    because the forgery is broken."""
    original = _sketch_message()
    data = _forge_sketch_message()
    assert data == serialize_message(original)
    message = deserialize_message(data)
    decoded = message.payload.parts[0].sketch
    assert message.payload.parts[0].buckets.splits is None
    for ours, theirs in zip(decoded.sketches, original.payload.parts[0].sketch.sketches):
        assert np.array_equal(ours._table, theirs._table)
        assert ours._master_seed == theirs._master_seed
    keys, values = SketchMLCompressor().decompress(message)
    expected_keys, expected_values = SketchMLCompressor().decompress(original)
    assert np.array_equal(keys, expected_keys)
    assert np.array_equal(values, expected_values)
    assert serialize_message(message) == data


@pytest.mark.parametrize(
    "case, pattern",
    [
        ("sketch-v2-cells-short", "larger than the remaining message"),
        ("sketch-v2-cells-long", "trailing bytes"),
        ("sketch-v2-word-out-of-range", "not below"),
        ("sketch-v2-nonzero-padding", "padding"),
        ("sketch-v2-cells-over-remaining", "larger than the remaining message"),
        ("sketch-v2-cell-width-mismatch", "disagrees with group index range"),
        ("sketch-v2-group-range-empty", "invalid group index range"),
        ("sketch-v2-unknown-family", "unknown hash family"),
        ("sketch-v2-splits-in-bucket-block", "16 buckets but carries 17 means"),
    ],
)
def test_forged_sketch_blocks_fail_on_the_intended_check(case, pattern):
    data = dict(_SKETCH_CASES)[case]
    with pytest.raises(SerializationError, match=pattern):
        deserialize_message(data)


def test_v2_writer_rejects_a_cell_outside_the_group_range():
    """A cell that is neither an in-group offset nor the empty sentinel
    has no symbol in the cell stream."""
    message = _compress(1234, 2000, 40000, "mixed", 0)
    sketch = message.payload.parts[0].sketch.sketches[0]
    sketch._table[0, 0] = sketch.index_range
    with pytest.raises(SerializationError, match="outside"):
        _serialize_at(message, 2)


def test_rice_baseline_decodes():
    """The unmutated Rice base decodes to the compressed keys and
    re-serializes to itself — the cases below fail for the mutation."""
    message, part = _rice_base()
    data = _serialize_at(message, 2)
    decoded = deserialize_message(data)
    got, want = decoded.payload.parts[0].group_keys, part.group_keys
    assert np.array_equal(got.concat, want.concat)
    assert np.array_equal(got.counts, want.counts)
    assert (got.code, got.blobs) == (want.code, want.blobs)
    assert _serialize_at(decoded, 2) == data


@pytest.mark.parametrize(
    "case, pattern",
    [
        ("rice-count-lie", r"count \d+ is not justified"),
        ("rice-k-over-31", "Rice parameter 32 exceeds 31"),
        ("rice-k-not-minimal", "not the block's smallest size minimiser"),
        ("rice-low-short", "cannot hold a .*low-bits stream"),
        ("rice-low-long", "terminators for"),
        ("rice-low-padding", "non-zero padding in the low-bits stream"),
        ("rice-extra-terminator", "terminators for"),
        ("rice-trailing-zero", "trailing zero byte"),
        ("rice-key-2^32", r"2\*\*32 or larger"),
        ("rice-code-delta-for-rice-keys", r"\(delta-binary\) for keys whose Rice"),
        ("rice-code-rice-for-delta-keys", "not smaller than delta-binary"),
        ("rice-code-unknown", "unknown key code 2"),
    ],
)
def test_forged_rice_blobs_fail_on_the_intended_check(case, pattern):
    data = dict(_RICE_CASES)[case]
    with pytest.raises(SerializationError, match=pattern):
        deserialize_message(data)


def test_rice_count_is_bounded_before_allocation():
    """A 2**32 - 1 key count in a 20-byte blob fails on the blob's
    length — every key costs a terminator bit — before anything sized
    by the count exists."""
    data = _forge_rice(lambda blob, _: (2**32 - 1).to_bytes(4, "little") + bytes(16))
    tracemalloc.start()
    try:
        with pytest.raises(SerializationError, match="not justified"):
            deserialize_message(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("kind", sorted(_KEY_LIST_VARIANTS))
def test_rice_keyed_key_lists_decode(kind):
    """Kind-0/1 parts ship their one key list as a Rice blob (key kind
    2), smaller than v1's delta-binary one (key kind 1); it decodes to
    the compressed keys and re-serializes to itself — the cases below
    fail for the mutation."""
    message = _key_list_message(kind)
    data = serialize_message(message)
    decoded = deserialize_message(data)
    for got_part, part in zip(decoded.payload.parts, message.payload.parts):
        got, want = got_part.group_keys, part.group_keys
        assert np.array_equal(got.concat, want.concat)
        assert (got.code, got.blobs) == (KEY_CODE_RICE, want.blobs)
    assert serialize_message(decoded) == data
    assert len(data) < len(serialize_v1(message))
    comp = SketchMLCompressor()
    for a, b in zip(comp.decompress(decoded), comp.decompress(message)):
        assert np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize(
    "case, pattern",
    [
        ("keys-rice-not-smaller", "not smaller than delta-binary"),
        ("keys-delta-where-rice-smaller", r"\(delta-binary\) for keys whose Rice"),
        ("keys-rice-truncated", "terminators for"),
        ("keys-rice-count-not-nnz", r"part nnz \d+ disagrees with its \d+ Rice"),
        ("raw-values-short", r"disagrees with its \d+ values"),
        ("indexes-short", r"disagrees with its \d+ indexes"),
        ("raw-part-nnz-lie", r"disagrees with its \d+ Rice-coded keys"),
        ("sketch-part-nnz-lie", r"disagrees with its \d+ keys"),
        ("parts-short-of-message-nnz", "the parts hold"),
    ],
)
def test_forged_key_lists_fail_on_the_intended_check(case, pattern):
    data = dict(_KEY_LIST_CASES)[case]
    with pytest.raises(SerializationError, match=pattern):
        deserialize_message(data)


def test_mixed_width_means_decode():
    """``_MIXED`` ships one f4 and one f8 table; both decode to the
    encoder's means and re-serialize to themselves — the cases below
    fail for the mutation."""
    data = _serialize_at(_MIXED, 2)
    sizes = [
        hi - lo for lo, hi, name in _writer_sections(_MIXED)
        if name == "bucket_means"
    ]
    tables = [part.buckets.means for part in _MIXED.payload.parts]
    assert [_f4_exact(m) for m in tables] == [True, False]
    assert sizes == [11 + 4 * tables[0].size, 11 + 8 * tables[1].size]
    decoded = deserialize_message(data)
    for got, want in zip(decoded.payload.parts, _MIXED.payload.parts):
        assert np.array_equal(_bits(got.buckets.means), _bits(want.buckets.means))
    assert _serialize_at(decoded, 2) == data
    comp = SketchMLCompressor()
    for a, b in zip(comp.decompress(decoded), comp.decompress(_MIXED)):
        assert np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize(
    "case, pattern",
    [
        ("means-v2-f4-nan", "must be finite"),
        ("means-v2-f8-inf", "must be finite"),
        ("means-v2-f4-negative", "must be non-negative"),
        ("means-v2-f8-negative", "must be non-negative"),
        ("means-v2-f4-decreasing", "must be non-decreasing"),
        ("means-v2-f8-decreasing", "must be non-decreasing"),
        ("means-v2-f4-blob-long", r"buckets but carries [\d.]+ means of 8"),
        ("means-v2-f4-blob-short", r"buckets but carries [\d.]+ means of 8"),
        ("means-v2-f4-exact-as-f8", "all f4-exact"),
    ],
)
def test_forged_bucket_means_fail_on_the_intended_check(case, pattern):
    data = dict(_BUCKET_MEANS_CASES)[case]
    with pytest.raises(SerializationError, match=pattern):
        deserialize_message(data)


@pytest.mark.parametrize("case", [name for name, _ in _RETIRED_CASES])
def test_payload_v1_fails_as_retired(case):
    with pytest.raises(SerializationError, match="payload v1 is retired"):
        deserialize_message(dict(_RETIRED_CASES)[case])


def test_serialize_refuses_any_version_but_v2():
    message = _sketch_message()
    assert serialize_message(message, version=2) == serialize_message(message)
    for version in (1, 3):
        with pytest.raises(ValueError, match=f"unsupported payload version {version}"):
            serialize_message(message, version=version)


def _key_groups(seed, nnz, num_groups, shape):
    """Ascending key lists of one of four shapes, dealt into groups."""
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        dimension = nnz * int(rng.choice([3, 10, 42, 330])) + 1
        keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
    elif shape == "zipf":
        keys = np.cumsum(np.minimum(rng.zipf(1.1, nnz), 1 << 17)) - 1
    elif shape == "clustered":
        centers = rng.integers(0, 1 << 31, size=max(1, nnz // 50))
        keys = np.unique(
            centers.take(rng.integers(0, centers.size, nnz))
            + rng.integers(0, 200, nnz)
        )
    else:  # small gaps and a few huge ones
        gaps = rng.integers(0, 4, nnz)
        if nnz:
            gaps[rng.integers(0, nnz, 3)] = 1 << 30
        keys = np.cumsum(gaps + 1) - 1
    deal = rng.integers(0, num_groups, keys.size)
    return [keys[deal == g] for g in range(num_groups)]


class TestRiceKeyProperties:
    @FUZZ
    @given(
        seed=st.integers(0, 2**32 - 1),
        nnz=st.integers(0, 20_000),
        num_groups=st.integers(1, 16),
        shape=st.sampled_from(["uniform", "zipf", "clustered", "outliers"]),
    )
    @example(seed=1, nnz=20_000, num_groups=16, shape="uniform")
    @example(seed=2, nnz=20_000, num_groups=1, shape="zipf")
    @example(seed=3, nnz=20_000, num_groups=8, shape="clustered")
    @example(seed=4, nnz=20_000, num_groups=5, shape="outliers")
    def test_v2_keys_decode_shrink_reencode_and_match_the_reference(
        self, seed, nnz, num_groups, shape
    ):
        groups = _key_groups(seed, nnz, num_groups, shape)
        concat = np.concatenate(groups)
        counts = np.asarray([g.size for g in groups], dtype=np.int64)
        key_code, blobs = encode_key_groups_v2(concat, counts)
        ((keys, got_counts),) = decode_key_parts([(key_code, blobs)])
        assert np.array_equal(keys, concat)
        assert np.array_equal(got_counts, counts)
        delta = encode_key_groups_flat(concat, counts)
        assert sum(map(len, blobs)) <= sum(map(len, delta))
        assert encode_key_groups_v2(keys, got_counts) == (key_code, blobs)
        assert (key_code, blobs) == rice_reference.encode_groups_v2(
            [g.tolist() for g in groups]
        )


# ----------------------------------------------------------------------
# chunk-stream mutations
# ----------------------------------------------------------------------
def _chunk_frames():
    pieces = list(
        iter_serialize_message(
            _compress(77, 600, 30000, "mixed", 1), chunk_bytes=256
        )
    )
    frames = list(
        iter_chunk_frames(KIND_GRAD, 3, pieces, chunk_bytes=256)
    )
    assert len(frames) >= 6  # several CHUNKs + END
    return frames


_FRAMES = _chunk_frames()


def _chunk_mutations():
    frames = _FRAMES
    n = len(frames) - 1  # last frame is END
    cases = {}
    for i in sorted(
        int(j) for j in _RNG.choice(n, size=min(n, 8), replace=False)
    ):
        cases[f"dup-{i}"] = frames[:i + 1] + frames[i:]
        cases[f"drop-{i}"] = frames[:i] + frames[i + 1:]
        if i + 1 < n:
            swapped = list(frames)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            cases[f"swap-{i}"] = swapped
        truncated = list(frames)
        kind, sender, payload = unpack_frame(frames[i])
        truncated[i] = pack_frame(
            kind, sender, bytes(payload)[:-3], version=2
        )
        cases[f"shrink-{i}"] = truncated
    end_kind, end_sender, end_payload = unpack_frame(frames[-1])
    total_chunks, inner_kind, total_bytes = struct.unpack(  # repro: noqa[wire-format] — forging END trailers is the point of this corpus
        "<IBQ", bytes(end_payload)
    )
    for name, lie in (
        ("end-more-chunks", (total_chunks + 1, inner_kind, total_bytes)),
        ("end-fewer-chunks", (total_chunks - 1, inner_kind, total_bytes)),
        ("end-byte-lie", (total_chunks, inner_kind, total_bytes + 1)),
        ("end-huge-bytes", (total_chunks, inner_kind, 1 << 62)),
        ("end-wrong-kind", (total_chunks, KIND_UPDATE, total_bytes)),
    ):
        forged = list(frames)
        forged[-1] = pack_frame(
            end_kind, end_sender, struct.pack("<IBQ", *lie), version=2  # repro: noqa[wire-format] — forging END trailers is the point of this corpus
        )
        cases[name] = forged
    cases["end-first"] = [frames[-1]] + frames[:-1]
    cases["no-end"] = frames[:-1] + [frames[0]]
    return sorted(cases.items())


CHUNK_MUTATIONS = _chunk_mutations()


def test_chunk_corpus_baseline_reassembles():
    """The unmutated stream decodes — the mutations below fail for the
    mutation, not because the harness is broken."""
    frames = _FRAMES
    reassembler = ChunkReassembler()
    inner = None
    chunks = None
    for frame in frames:
        kind, _, payload = unpack_frame(frame)
        if kind == KIND_END:
            inner, chunks = reassembler.finish(bytes(payload))
        else:
            assert kind == KIND_CHUNK
            reassembler.feed(bytes(payload))
    assert inner == KIND_GRAD
    message = deserialize_message_chunks(chunks)
    assert serialize_message(message) == b"".join(
        iter_serialize_message(message)
    )


@pytest.mark.parametrize(
    "frames", [c[1] for c in CHUNK_MUTATIONS],
    ids=[c[0] for c in CHUNK_MUTATIONS],
)
def test_mutated_chunk_streams_always_raise(frames):
    reassembler = ChunkReassembler()
    with pytest.raises((FrameError, SerializationError)):
        chunks = None
        saw_end = False
        for frame in frames:
            kind, _, payload = unpack_frame(frame)
            if kind == KIND_END:
                _, chunks = reassembler.finish(bytes(payload))
                saw_end = True
            else:
                reassembler.feed(bytes(payload))
        if not saw_end:
            raise FrameError("stream ended without an END trailer")
        deserialize_message_chunks(chunks)


def test_chunk_budget_is_enforced():
    frames = _FRAMES
    reassembler = ChunkReassembler(max_bytes=64)
    with pytest.raises(FrameError):
        for frame in frames[:-1]:
            _, _, payload = unpack_frame(frame)
            reassembler.feed(bytes(payload))


class TestReassemblerTolerance:
    """The tolerant feed/finish used by the receive loops: a retried
    stream restarts cleanly, stale leftovers drop, and everything the
    strict path rejects as corruption still raises."""

    def _payloads(self):
        return [unpack_frame(f)[2] for f in _FRAMES]

    def test_seq_zero_restarts_an_active_stream(self):
        payloads = self._payloads()
        reassembler = ChunkReassembler()
        # Partial first delivery, then the full retried stream.
        for p in payloads[:3]:
            assert reassembler.feed_tolerant(p)
        for p in payloads[:-1]:
            assert reassembler.feed_tolerant(p)
        inner, chunks = reassembler.finish_tolerant(payloads[-1])
        assert inner == KIND_GRAD
        message = deserialize_message_chunks(chunks)
        assert serialize_message(message) == b"".join(
            iter_serialize_message(message)
        )

    def test_stale_tail_drops_without_raising(self):
        payloads = self._payloads()
        reassembler = ChunkReassembler()
        # Leftovers of an aborted stream: non-zero seq while inactive.
        assert reassembler.feed_tolerant(payloads[2]) is False
        assert reassembler.feed_tolerant(payloads[3]) is False
        # ... including its END, which declares non-zero totals.
        assert reassembler.finish_tolerant(payloads[-1]) is None
        # The next full stream is unaffected.
        for p in payloads[:-1]:
            assert reassembler.feed_tolerant(p)
        inner, _ = reassembler.finish_tolerant(payloads[-1])
        assert inner == KIND_GRAD

    def test_mid_stream_gap_still_raises(self):
        payloads = self._payloads()
        reassembler = ChunkReassembler()
        assert reassembler.feed_tolerant(payloads[0])
        with pytest.raises(FrameError, match="sequence"):
            reassembler.feed_tolerant(payloads[2])

    def test_lying_end_still_raises_on_active_stream(self):
        payloads = self._payloads()
        reassembler = ChunkReassembler()
        for p in payloads[:-1]:
            assert reassembler.feed_tolerant(p)
        end = bytes(payloads[-1])
        forged = end[:-8] + struct.pack("<Q", 1 << 62)  # repro: noqa[wire-format] — forging the END byte total under test
        with pytest.raises(FrameError, match="declares"):
            reassembler.finish_tolerant(forged)


# ----------------------------------------------------------------------
# length-budget regressions (the u64 pre-allocation bombs)
# ----------------------------------------------------------------------
class TestLengthBudgetRegressions:
    """A declared u64 length must be validated *before* any allocation.

    Regression tests for the historic trust-the-header bombs in
    ``deserialize_message`` and ``FrameAssembler``: a 2**40 length
    field must be a structured reject, not a 1 TiB allocation."""

    def test_unpack_header_rejects_terabyte_length(self):
        header = _HEADER.pack(FRAME_MAGIC, 1, KIND_GRAD, 0, 1 << 40)
        with pytest.raises(FrameError, match="exceeds"):
            unpack_header(header)

    def test_frame_assembler_rejects_terabyte_length(self):
        header = _HEADER.pack(FRAME_MAGIC, 1, KIND_GRAD, 0, 1 << 40)
        assembler = FrameAssembler()
        assembler.feed(header)
        with pytest.raises(FrameError, match="exceeds"):
            assembler.next_frame()
        # The budget held: the assembler never grew anywhere near the
        # declared terabyte.
        assert len(assembler) < 1 << 20

    def test_frame_assembler_honours_configured_budget(self):
        frame = pack_frame(KIND_GRAD, 0, b"x" * 2048)
        assembler = FrameAssembler(max_frame_bytes=1024)
        assembler.feed(frame)
        with pytest.raises(FrameError, match="exceeds"):
            assembler.next_frame()
        # The same frame passes under the default budget.
        assembler = FrameAssembler()
        assembler.feed(frame)
        assert assembler.next_frame() == frame

    def test_header_length_cannot_exceed_global_ceiling(self):
        header = _HEADER.pack(FRAME_MAGIC, 1, KIND_GRAD, 0, 1 << 40)
        with pytest.raises(FrameError):
            unpack_header(header, max_frame_bytes=1 << 62)

    def test_deserialize_rejects_lying_message_nnz(self):
        data = bytearray(_BASES[2])
        data[14:22] = struct.pack("<Q", 1 << 40)  # repro: noqa[wire-format] — forging the nnz field under test
        with pytest.raises(SerializationError):
            deserialize_message(bytes(data))

    def test_deserialize_honours_configured_budget(self):
        data = _BASES[2]
        with pytest.raises(SerializationError):
            deserialize_message(data, max_message_bytes=64)
        assert deserialize_message(
            data, max_message_bytes=MAX_MESSAGE_BYTES
        ) is not None

    def test_chunked_deserialize_honours_configured_budget(self):
        message = _compress(5, 100, 5000, "mixed", 1)
        pieces = list(iter_serialize_message(message, chunk_bytes=128))
        with pytest.raises(SerializationError):
            deserialize_message_chunks(pieces, max_message_bytes=64)

    def test_sketch_cell_count_is_bounded_before_allocation(self):
        """A v2 sketch header declaring ~2.8e14 cells is checked against
        the bytes that follow before a table or decode buffer exists."""
        data = dict(_SKETCH_CASES)["sketch-v2-cells-over-remaining"]
        tracemalloc.start()
        try:
            with pytest.raises(SerializationError, match="remaining"):
                deserialize_message(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("mode", ["scalar", "vectorised"])
    def test_entropy_decode_count_is_bounded_by_key_bytes(self, mode):
        """A one-symbol alphabet codes to zero bytes per symbol, so the
        exact-length check cannot bound nnz; a forged nnz must be
        rejected against the part's key stream — raw keys, or a Rice
        blob's count — before decode allocates 2**30 symbols."""
        nnz_lie = 1 << 30
        for rice_keys, pattern in ((False, "raw keys"), (True, "Rice-coded keys")):
            data = _forge_index_message(
                _dense_block(0, 1, 1, b""), nnz_lie, num_keys=1,
                rice_keys=rice_keys,
            )
            with kernel_path(mode), pytest.raises(
                SerializationError, match=pattern
            ):
                deserialize_message(data)


def test_corpus_is_large_enough():
    """The acceptance bar: at least 200 committed mutation cases."""
    total = (
        len(MUST_FAIL_CASES) + len(MAY_ACCEPT_CASES) + len(CHUNK_MUTATIONS)
    )
    assert total >= 200, total
