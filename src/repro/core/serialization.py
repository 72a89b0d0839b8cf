"""Binary wire format for SketchML messages.

This module serialises a :class:`~repro.compression.base.
CompressedGradient` produced by :class:`~repro.core.compressor.
SketchMLCompressor` into a self-describing byte string and back,
bit-for-bit:

``serialize_message`` → ``bytes`` → ``deserialize_message`` →
decompresses to exactly the same keys/values as the in-memory message.
It is also the only place that knows the layout's size: a message's
``num_bytes`` / ``breakdown`` are its payload-v2 length and that
length's per-section split (:func:`wire_sections`).

The version 1 layout (all integers little-endian)::

    header:   magic "SKML" | version u8 | flags u8 | dimension u64 | nnz u64
              | num_parts u8
    per part: sign i8 | nnz u64 | kind u8
      kind 0 (raw values):      key_kind u8, keys, values f64[]
      kind 1 (indexes):         key_kind u8, keys, bucket block, index
                                marker u8, indexes
      (key_kind 0: u4[] keys; 1: one delta-binary blob, length-prefixed)
      kind 2 (grouped sketch):  bucket block, num_blobs u8 + one key blob
                                per group (delta-binary, length-prefixed),
                                num_groups u8 | index_range u32, then one
                                sketch block per group
    bucket block:  num_buckets u16 | sign i8 | splits f64[q+1] | means f64[q]
    sketch block:  rows u8 | bins u32 | index_range u32 | seed i64 |
                   hash_family u8 | cell_width u8 | table bytes

Version 1 is frozen (the committed golden fixtures pin it byte for
byte).  Version 2 keeps the layout, drops what no decoder reads and
codes what is left densely, so it is never larger than v1:

* the bucket block loses ``splits`` (``num_buckets u16 | sign i8 |
  means f32[q] or f64[q]``); decoded v2 buckets have ``splits=None``.
  The means ship as ``f32`` when that reproduces them exactly (the
  quantizer rounds them toward zero to float32 values, so that is the
  rule) and as ``f64`` otherwise; the reader takes the width from the
  blob length (``4q`` or ``8q`` bytes, anything else is an error);
* a kind-2 part's ``num_blobs u8`` is followed by a ``key_code u8``:
  1 when its group key blobs are block-adaptive Rice
  (:mod:`repro.core.rice`), 0 when they stay delta-binary — the encoder
  picks Rice exactly when it is strictly smaller, and the decoder
  rejects any other choice;
* a kind-0/1 part's key block takes the same choice for its one key
  list: ``key_kind`` 2 is one length-prefixed Rice blob, and a part
  that keeps delta-binary (``key_kind`` 1) is byte-identical to v1;
* a kind-2 part ships one shared sketch header (group 0's seed; group
  ``g`` hashes with ``seed + GROUP_SEED_STRIDE * g``) and then every
  group's cells as one dense radix stream over the ``gir + 1`` symbols
  ``0 … gir - 1`` plus ``gir`` for the empty sentinel, where ``gir`` is
  the per-group index range;
* optionally (flag ``ENTROPY``) index marker 4 dense-codes a kind-1
  part's bucket-index stream, chosen per part only when it beats the
  plain/bit-packed encoding.  Marker 3 (the rANS block it replaced) is
  retired and rejected by name.

The dense radix code is :mod:`repro.core.entropy` (base-``b`` digits
packed ``k`` to a ``wb``-byte word, no model on the wire).  See
``docs/wire.md`` for the full spec.

Both directions stream: :func:`iter_serialize_message` yields the wire
bytes in bounded chunks and :func:`deserialize_message_chunks` parses
straight from a chunk iterator, so a multi-GB gradient never has to
materialise as one contiguous buffer on either side.  Every declared
length is clamped against a configurable byte budget before any
allocation happens — a lying header raises :class:`SerializationError`
instead of an allocation bomb.

The decoder rebuilds the MinMaxSketch hash functions from the recorded
``(rows, bins, seed, family)``, so encoder and decoder agree on every
bin placement without shipping the functions themselves.  It decodes
every part's delta-coded keys once the parts are read, in one pass per
key code (:func:`~repro.core.rice.decode_key_parts`), and checks the
counts: each part's keys, values and indexes number its ``nnz``, and
the parts' ``nnz`` sum to the message's.  At both versions it rejects
bucket means that are non-finite, negative or decreasing.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..compression.base import CompressedGradient
from . import entropy as _entropy
from .bitpack import pack_uint_array, packed_size_bytes, unpack_uint_array
from .compressor import GroupKeys, SketchMLPayload, SignPart
from .delta_encoding import encode_key_groups_flat
from .minmax_sketch import (
    GROUP_SEED_STRIDE,
    GroupedMinMaxSketch,
    MinMaxSketch,
    _dtype_for_range,
)
from .quantizer import _F32_MAX, SignedBuckets
from .rice import (
    KEY_CODE_DELTA,
    KEY_CODE_RICE,
    decode_key_parts,
    encode_key_groups_v2,
    rice_key_count,
)

__all__ = [
    "serialize_message",
    "wire_sections",
    "iter_serialize_message",
    "deserialize_message",
    "deserialize_message_chunks",
    "SerializationError",
    "PAYLOAD_VERSION_V1",
    "PAYLOAD_VERSION_V2",
    "SUPPORTED_PAYLOAD_VERSIONS",
    "MAX_MESSAGE_BYTES",
    "DEFAULT_CHUNK_BYTES",
]

_MAGIC = b"SKML"

PAYLOAD_VERSION_V1 = 1
PAYLOAD_VERSION_V2 = 2
SUPPORTED_PAYLOAD_VERSIONS = (PAYLOAD_VERSION_V1, PAYLOAD_VERSION_V2)
_VERSION = PAYLOAD_VERSION_V1  # encode default; v1 bytes are frozen

#: Default ceiling on a decoded message (and on any single declared
#: length inside one) — a corrupted u64 length field must fail fast,
#: not drive a multi-gigabyte allocation.  Callers with stricter
#: expectations (fuzzers, small control planes) pass a tighter budget.
MAX_MESSAGE_BYTES = 1 << 31

#: Default streaming chunk size for :func:`iter_serialize_message`.
DEFAULT_CHUNK_BYTES = 64 * 1024

_FLAG_DECAY = 1
_FLAG_ENTROPY = 2

_KIND_RAW = 0
_KIND_INDEXES = 1
_KIND_SKETCH = 2

#: A kind-0/1 part's ``key_kind``: raw keys, or one blob in a v2 key
#: code (``key_kind - 1``; Rice is payload v2 only).
_KEY_KIND_RAW = 0
_KEY_KIND_DELTA = 1 + KEY_CODE_DELTA
_KEY_KIND_RICE = 1 + KEY_CODE_RICE

#: Index markers inside a kind-1 part.  1 and 2 double as the array
#: itemsize, a v1 layout quirk kept for compatibility.
_MARKER_PACKED = 0
_MARKER_RANS_RETIRED = 3  # the v2 rANS block; rejected by name
_MARKER_ENTROPY = 4
_ENTROPY_ORIGIN_PLAIN = 0
_ENTROPY_ORIGIN_PACKED = 1

_HASH_FAMILIES = ("multiply_shift", "tabulation")

# Every fixed-width field of the layout, compiled once (little-endian).
_U8 = struct.Struct("<B")
_I8 = struct.Struct("<b")
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")
_VERSION_FLAGS = struct.Struct("<BB")
_DIMENSION_NNZ = struct.Struct("<QQ")
# rows, bins, index_range, seed, hash family id, bytes per cell
_SKETCH_HEADER = struct.Struct("<BIIqBB")
_GROUPED_HEADER = struct.Struct("<BI")  # num_groups, index_range
_ENTROPY_FIELDS = struct.Struct("<BBH")  # origin, width, num_symbols


class SerializationError(ValueError):
    """Raised when a byte string cannot be decoded as a SketchML message."""


class _Writer:
    def __init__(self) -> None:
        self._chunks: List[bytes] = []
        # (first chunk index, section name); see :func:`wire_sections`.
        self._marks: List[Tuple[int, str]] = [(0, "header")]

    def section(self, name: str) -> None:
        """Tally the pieces written from here on under ``name``."""
        self._marks.append((len(self._chunks), name))

    def sections(self) -> Dict[str, int]:
        sizes: Dict[str, int] = {}
        ends = [start for start, _ in self._marks[1:]] + [len(self._chunks)]
        for (start, name), end in zip(self._marks, ends):
            sizes[name] = sizes.get(name, 0) + sum(
                map(len, self._chunks[start:end])
            )
        return sizes

    def raw(self, data: bytes) -> None:
        self._chunks.append(data)

    def pack(self, field: struct.Struct, *values) -> None:
        self._chunks.append(field.pack(*values))

    def blob(self, data: bytes) -> None:
        self.pack(_U64, len(data))
        self.raw(data)

    def array(self, arr: np.ndarray) -> None:
        self.blob(arr.tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)

    def pieces(self) -> List[bytes]:
        return self._chunks


class _Reader:
    """Bounded cursor over wire bytes, contiguous or chunked.

    With ``source=None`` this is a plain cursor over ``data``.  With a
    chunk iterator it pulls just enough bytes to satisfy each read and
    drops consumed prefixes, so peak memory is one blob, not the whole
    message.  Every read is charged against ``budget``; a declared
    length that cannot fit raises before anything is allocated.
    """

    def __init__(
        self,
        data: bytes = b"",
        *,
        source: Optional[Iterator[bytes]] = None,
        budget: int = MAX_MESSAGE_BYTES,
    ) -> None:
        if budget <= 0:
            raise ValueError("budget must be positive")
        self._data = data
        self._pos = 0
        self._source = iter(source) if source is not None else None
        self._budget = int(budget)
        self._consumed = 0

    def _ensure(self, n: int) -> None:
        if len(self._data) - self._pos >= n:
            return
        if self._source is None:
            raise SerializationError("truncated message")
        parts = [self._data[self._pos:]] if self._pos < len(self._data) else []
        have = sum(len(p) for p in parts)
        while have < n:
            chunk = next(self._source, None)
            if chunk is None:
                self._source = None
                raise SerializationError("truncated message")
            if chunk:
                parts.append(bytes(chunk))
                have += len(chunk)
        self._data = b"".join(parts)
        self._pos = 0

    def raw(self, n: int) -> bytes:
        if n < 0:
            raise SerializationError(f"negative length {n}")
        if self._consumed + n > self._budget:
            raise SerializationError(
                f"declared length {n} exceeds the {self._budget}-byte "
                f"message budget"
            )
        self._ensure(n)
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        self._consumed += n
        return out

    def unpack(self, field: struct.Struct):
        values = field.unpack(self.raw(field.size))
        return values if len(values) > 1 else values[0]

    def blob(self) -> bytes:
        return self.raw(self.unpack(_U64))

    def array(self, dtype) -> np.ndarray:
        data = self.blob()
        try:
            return np.frombuffer(data, dtype=dtype)
        except ValueError as exc:
            raise SerializationError(f"malformed array blob: {exc}") from None

    def remaining_bound(self) -> int:
        """Upper bound on the bytes this message can still contain."""
        if self._source is None:
            return len(self._data) - self._pos
        return self._budget - self._consumed

    @property
    def exhausted(self) -> bool:
        if self._pos < len(self._data):
            return False
        if self._source is not None:
            for chunk in self._source:
                if chunk:
                    self._data = bytes(chunk)
                    self._pos = 0
                    return False
            self._source = None
        return True


# ----------------------------------------------------------------------
# buckets
# ----------------------------------------------------------------------
def _write_buckets(w: _Writer, buckets: SignedBuckets, version: int) -> None:
    w.section("bucket_means")
    w.pack(_U16, buckets.num_buckets)
    w.pack(_I8, 1 if buckets.sign > 0 else -1)
    if version < PAYLOAD_VERSION_V2:
        # Only v1 ships the splits; no decoder reads them.
        if buckets.splits is None:
            raise SerializationError(
                "payload v1 ships bucket splits, but these buckets were "
                "decoded from payload v2 and have none; serialize at v2"
            )
        w.array(np.asarray(buckets.splits, dtype="<f8"))
    means = np.asarray(buckets.means, dtype="<f8")
    if version >= PAYLOAD_VERSION_V2 and _f4_exact(means):
        means = means.astype("<f4")
    w.array(means)


def _f4_exact(means: np.ndarray) -> bool:
    """Whether narrowing ``means`` to f4 and widening back is exact."""
    if means.size and not float(means.max()) <= _F32_MAX:
        return False  # past float32's range (or NaN): the cast would warn
    return bool((means.astype("<f4") == means).all())


def _read_buckets(r: _Reader, version: int) -> SignedBuckets:
    num_buckets = r.unpack(_U16)
    sign = float(r.unpack(_I8))
    splits = None
    if version < PAYLOAD_VERSION_V2:
        splits = r.array("<f8").copy()
        if splits.size != num_buckets + 1:
            raise SerializationError("bucket table sizes are inconsistent")
    blob = r.blob()
    # v2 means are f4 when that is exact (4 bytes a bucket), else f8;
    # the blob length says which.  At v2 a v1-style block (splits
    # first) fails here too.
    widths = {8 * num_buckets: "<f8"}
    if version >= PAYLOAD_VERSION_V2:
        widths[4 * num_buckets] = "<f4"
    dtype = widths.get(len(blob))
    if dtype is None:
        raise SerializationError(
            f"bucket block declares {num_buckets} buckets but carries "
            f"{len(blob) / 8:g} means of 8 bytes or {len(blob) / 4:g} of 4"
        )
    means = np.frombuffer(blob, dtype=dtype).astype(np.float64)
    # Decoded values are sign * means: a non-finite, negative or
    # out-of-order mean would decode to garbage, flip the sign, or break
    # the index-order = magnitude-order contract the sketch relies on.
    # One pass accepts a valid table (NaN fails every comparison).
    if means.size and not (
        means[0] >= 0.0 and means[-1] < np.inf
        and (means[1:] >= means[:-1]).all()
    ):
        if not np.isfinite(means).all():
            raise SerializationError("bucket means must be finite")
        if (means < 0).any():
            raise SerializationError("bucket means must be non-negative")
        raise SerializationError("bucket means must be non-decreasing")
    if dtype == "<f8" and version >= PAYLOAD_VERSION_V2 and _f4_exact(means):
        raise SerializationError(
            "bucket means ship as f8 but are all f4-exact; the writer "
            "ships those as f4"
        )
    return SignedBuckets(splits=splits, means=means, sign=sign)


# ----------------------------------------------------------------------
# sketches
# ----------------------------------------------------------------------
def _write_minmax(w: _Writer, sketch: MinMaxSketch) -> None:
    # Row hash functions derive deterministically from the master seed,
    # so shipping (rows, bins, seed, family) reconstructs them exactly.
    itemsize = sketch._table.dtype.itemsize
    w.pack(_SKETCH_HEADER, sketch.num_rows, sketch.num_bins, sketch.index_range,
           sketch._master_seed, _HASH_FAMILIES.index(sketch._hash_family_name),
           itemsize)
    w.array(np.asarray(sketch._table, dtype=f"<u{itemsize}"))


def _read_minmax(r: _Reader) -> MinMaxSketch:
    rows, bins, index_range, master_seed, family_id, itemsize = r.unpack(
        _SKETCH_HEADER
    )
    if family_id >= len(_HASH_FAMILIES):
        raise SerializationError(f"unknown hash family id {family_id}")
    family = _HASH_FAMILIES[family_id]
    dtype = {1: "u1", 2: "<u2", 4: "<u4"}.get(itemsize)
    if dtype is None:
        raise SerializationError(f"unknown sketch cell width {itemsize}")
    # Validate the declared table dimensions against the bytes that can
    # still follow *before* constructing the sketch — the constructor
    # allocates rows×bins cells, so a lying header must fail here, not
    # drive the allocation.
    if rows < 1 or bins < 1:
        raise SerializationError(f"invalid sketch shape {rows}x{bins}")
    if rows * bins * itemsize > r.remaining_bound():
        raise SerializationError(
            f"declared sketch table ({rows}x{bins}) larger than the "
            f"remaining message"
        )
    table = r.array(dtype)
    if table.size != rows * bins:
        raise SerializationError("sketch table size mismatch")
    try:
        # The sketch adopts the wire table (one writable copy) instead
        # of filling a sentinel table only to throw it away.
        return MinMaxSketch(
            num_rows=rows, num_bins=bins, index_range=index_range,
            seed=master_seed, hash_family=family,
            table=table.reshape(rows, bins).copy(),
        )
    except ValueError as exc:
        raise SerializationError(f"invalid sketch header: {exc}") from None


def _write_grouped(w: _Writer, grouped: GroupedMinMaxSketch) -> None:
    w.pack(_GROUPED_HEADER, grouped.num_groups, grouped.index_range)
    for sketch in grouped.sketches:
        _write_minmax(w, sketch)


def _write_grouped_v2(w: _Writer, grouped: GroupedMinMaxSketch) -> None:
    # One shared header, then every group's cells (group-major, then
    # row-major) as one dense radix stream: a cell is an in-group
    # offset below ``gir`` or the empty sentinel, coded as ``gir``.
    if not grouped._fusable():
        raise SerializationError(
            "group sketches differ in shape; payload v2 ships one header "
            "per grouped sketch (use v1)"
        )
    sketches = grouped.sketches
    ref = sketches[0]
    seeds = [sk._master_seed for sk in sketches]
    if seeds != [seeds[0] + GROUP_SEED_STRIDE * g for g in range(len(seeds))]:
        raise SerializationError(
            f"group seeds {seeds} are off the {GROUP_SEED_STRIDE} stride; "
            "payload v2 rebuilds them from group 0's (use v1)"
        )
    gir = ref.index_range
    cells = np.concatenate([sk._table.reshape(-1) for sk in sketches])
    empty = cells == ref._sentinel
    if not np.all(empty | (cells < gir)):
        raise SerializationError(
            f"sketch cell outside [0, {gir}) and not the empty sentinel"
        )
    w.pack(_GROUPED_HEADER, grouped.num_groups, grouped.index_range)
    w.pack(_SKETCH_HEADER, ref.num_rows, ref.num_bins, gir, ref._master_seed,
           _HASH_FAMILIES.index(ref._hash_family_name), cells.dtype.itemsize)
    w.raw(_entropy.encode_indexes(
        np.minimum(cells, cells.dtype.type(gir)), gir + 1
    ))


def _read_grouped_header(r: _Reader) -> GroupedMinMaxSketch:
    num_groups, index_range = r.unpack(_GROUPED_HEADER)
    if num_groups < 1 or index_range < 1:
        raise SerializationError(
            f"invalid grouped sketch header ({num_groups} groups, "
            f"range {index_range})"
        )
    grouped = GroupedMinMaxSketch.__new__(GroupedMinMaxSketch)
    grouped.num_groups = num_groups
    grouped.index_range = index_range
    grouped.group_width = -(-index_range // num_groups)
    return grouped


def _read_grouped(r: _Reader) -> GroupedMinMaxSketch:
    grouped = _read_grouped_header(r)
    grouped._sketches = [_read_minmax(r) for _ in range(grouped.num_groups)]
    return grouped


def _read_grouped_v2(r: _Reader) -> GroupedMinMaxSketch:
    grouped = _read_grouped_header(r)
    rows, bins, gir, seed, family_id, cell_width = r.unpack(_SKETCH_HEADER)
    if family_id >= len(_HASH_FAMILIES):
        raise SerializationError(f"unknown hash family id {family_id}")
    if rows < 1 or bins < 1:
        raise SerializationError(f"invalid sketch shape {rows}x{bins}")
    if not 1 <= gir < _entropy.MAX_RADIX:
        raise SerializationError(f"invalid group index range {gir}")
    dtype = _dtype_for_range(gir)
    if cell_width != dtype.itemsize:
        raise SerializationError(
            f"cell width {cell_width} disagrees with group index range "
            f"{gir} (expects {dtype.itemsize})"
        )
    # The cell count and radix fix the coded length exactly; check it
    # against what can still follow before anything is allocated.
    count = grouped.num_groups * rows * bins
    coded_len = _entropy.coded_size(gir + 1, count)
    if coded_len > r.remaining_bound():
        raise SerializationError(
            f"declared sketch cells ({grouped.num_groups}x{rows}x{bins}) "
            f"larger than the remaining message"
        )
    try:
        symbols = _entropy.decode_indexes(r.raw(coded_len), gir + 1, count)
    except _entropy.EntropyError as exc:
        raise SerializationError(f"corrupt sketch cells: {exc}") from None
    sentinel = np.iinfo(dtype).max
    tables = np.where(symbols == gir, sentinel, symbols).astype(dtype)
    tables = tables.reshape(grouped.num_groups, rows, bins)
    family = _HASH_FAMILIES[family_id]
    try:
        grouped._sketches = [
            MinMaxSketch(
                num_rows=rows, num_bins=bins, index_range=gir,
                seed=seed + GROUP_SEED_STRIDE * g, hash_family=family,
                table=tables[g],
            )
            for g in range(grouped.num_groups)
        ]
    except ValueError as exc:
        raise SerializationError(f"invalid sketch header: {exc}") from None
    return grouped


# ----------------------------------------------------------------------
# dense-coded indexes (payload v2 only)
# ----------------------------------------------------------------------
def _entropy_block(
    symbols: np.ndarray, itemsize: int, fallback_len: int
) -> Optional[Tuple[int, bytes]]:
    """Try to dense-code an index stream; ``None`` keeps the fallback.

    ``fallback_len`` is the byte length of the encoding the part would
    otherwise use (plain array or bit-packed).  The choice is
    deterministic, so re-encoding a decoded message reproduces the
    exact wire bytes.  Returns ``(num_symbols, coded)``.
    """
    if symbols.size == 0 or itemsize not in (1, 2):
        return None
    num_symbols = int(symbols.max()) + 1
    if num_symbols > 0xFFFF:
        return None
    # marker + origin + width + num_symbols + prefixed stream; the
    # coded length is a function of (alphabet, count) alone, so a
    # stream that cannot win is never coded.
    block_len = 1 + 1 + 1 + 2 + 8 + _entropy.coded_size(num_symbols, symbols.size)
    if telemetry.enabled():
        telemetry.counter("codec.entropy.plain_bytes", fallback_len)
        telemetry.counter("codec.entropy.coded_bytes", min(block_len, fallback_len))
    if block_len >= fallback_len:
        return None
    return num_symbols, _entropy.encode_indexes(symbols, num_symbols)


def _write_entropy_block(
    w: _Writer, origin: int, width: int, block: Tuple[int, bytes]
) -> None:
    # The origin byte + width restore the exact fallback representation
    # on decode, so re-encoding the message reproduces the wire bytes.
    num_symbols, coded = block
    w.pack(_U8, _MARKER_ENTROPY)
    w.pack(_ENTROPY_FIELDS, origin, width, num_symbols)
    w.blob(coded)


def _write_index_stream(w: _Writer, part: SignPart, entropy: bool) -> None:
    if part.packed_indexes is not None:
        # Bit-packed fallback: marker 0 + width + blob.
        packed_len = 1 + 1 + 8 + len(part.packed_indexes)
        block = None
        if entropy:
            symbols = unpack_uint_array(
                part.packed_indexes, part.nnz, part.index_bits
            )
            itemsize = 1 if part.index_bits <= 8 else 2
            block = _entropy_block(symbols, itemsize, packed_len)
        if block is None:
            w.pack(_U8, _MARKER_PACKED)
            w.pack(_U8, part.index_bits)
            w.blob(part.packed_indexes)
        else:
            _write_entropy_block(
                w, _ENTROPY_ORIGIN_PACKED, part.index_bits, block
            )
    else:
        idx = np.asarray(part.indexes)
        itemsize = idx.dtype.itemsize
        plain_len = 1 + 8 + idx.size * itemsize
        block = _entropy_block(idx, itemsize, plain_len) if entropy else None
        if block is None:
            w.pack(_U8, itemsize)
            w.array(np.asarray(idx, dtype=f"<u{itemsize}"))
        else:
            _write_entropy_block(w, _ENTROPY_ORIGIN_PLAIN, itemsize, block)


def _read_entropy_indexes(r: _Reader, part: SignPart) -> None:
    origin, width, num_symbols = r.unpack(_ENTROPY_FIELDS)
    if origin not in (_ENTROPY_ORIGIN_PLAIN, _ENTROPY_ORIGIN_PACKED):
        raise SerializationError(f"unknown entropy origin {origin}")
    if origin == _ENTROPY_ORIGIN_PACKED:
        if not 1 <= width <= 16:
            raise SerializationError(
                f"invalid packed index width {width}"
            )
        itemsize = 1 if width <= 8 else 2
    else:
        itemsize = width
    dtype = {1: "u1", 2: "<u2"}.get(itemsize)
    if dtype is None:
        raise SerializationError(f"unknown index width {itemsize}")
    if num_symbols < 1:
        raise SerializationError("empty index alphabet")
    if num_symbols > (1 << (8 * itemsize)):
        raise SerializationError(
            f"{num_symbols}-symbol alphabet does not fit index width {itemsize}"
        )
    if origin == _ENTROPY_ORIGIN_PACKED and num_symbols > (1 << width):
        raise SerializationError(
            f"{num_symbols}-symbol alphabet does not fit pack width {width}"
        )
    # A one-symbol alphabet codes to zero bytes per symbol, so the
    # coded length alone cannot bound the count; the part's key block,
    # already read as physically present bytes, has bounded it
    # (:func:`_read_keys`).
    coded = r.blob()
    try:
        symbols = _entropy.decode_indexes(coded, num_symbols, part.nnz)
    except _entropy.EntropyError as exc:
        raise SerializationError(f"corrupt dense-coded indexes: {exc}") from None
    # The encoder never codes an empty stream and its radix is max + 1;
    # anything looser would decode but not re-encode to the same bytes.
    if part.nnz == 0 or int(symbols.max()) != num_symbols - 1:
        raise SerializationError(
            f"{num_symbols}-symbol alphabet is wider than the stream's "
            f"largest index"
        )
    if origin == _ENTROPY_ORIGIN_PACKED:
        part.index_bits = width
        part.packed_indexes = pack_uint_array(symbols, width)
    else:
        part.indexes = symbols.astype(dtype)


# ----------------------------------------------------------------------
# parts
# ----------------------------------------------------------------------
def _write_part(w: _Writer, part: SignPart, version: int, entropy: bool) -> None:
    w.section("header")
    w.pack(_I8, part.sign)
    w.pack(_U64, part.nnz)
    if part.raw_values is not None:
        w.pack(_U8, _KIND_RAW)
        _write_keys(w, part, version)
        w.section("values")
        w.array(np.asarray(part.raw_values, dtype="<f8"))
    elif part.sketch is not None:
        w.pack(_U8, _KIND_SKETCH)
        _write_buckets(w, part.buckets, version)
        w.section("keys")
        key_code, blobs = _key_blobs(part.group_keys, version)
        w.pack(_U8, len(blobs))
        if version >= PAYLOAD_VERSION_V2:
            w.pack(_U8, key_code)
        for blob in blobs:
            w.blob(blob)
        w.section("sketch")
        if version < PAYLOAD_VERSION_V2:
            _write_grouped(w, part.sketch)
        else:
            _write_grouped_v2(w, part.sketch)
    else:
        w.pack(_U8, _KIND_INDEXES)
        _write_keys(w, part, version)
        _write_buckets(w, part.buckets, version)
        w.section("values")
        _write_index_stream(w, part, entropy)


def _key_blobs(keys: GroupKeys, version: int) -> Tuple[Optional[int], List[bytes]]:
    """A part's key code and blobs in ``version``'s code.

    ``compress`` codes them once, in v2's code, and the v2 writer copies
    them; v1 ships delta-binary (code ``None``), so Rice blobs are
    transcoded.  Delta-binary blobs whose v2 code was never chosen (a
    v1 decode) get it chosen for a v2 write.
    """
    if version < PAYLOAD_VERSION_V2:
        if keys.code == KEY_CODE_RICE:
            return None, encode_key_groups_flat(keys.concat, keys.counts)
        return None, keys.blobs
    if keys.code is not None:
        return keys.code, keys.blobs
    return encode_key_groups_v2(keys.concat, keys.counts)


def _write_keys(w: _Writer, part: SignPart, version: int) -> None:
    w.section("keys")
    if part.group_keys is None:
        w.pack(_U8, _KEY_KIND_RAW)
        w.array(np.asarray(part.raw_keys, dtype="<u4"))
        return
    key_code, (blob,) = _key_blobs(part.group_keys, version)
    w.pack(_U8, _KEY_KIND_DELTA if key_code is None else 1 + key_code)
    w.blob(blob)


#: A message's delta-coded key blocks as read, ``(part, key code,
#: blobs)`` each; :func:`_decode_keys` decodes them once all parts are in.
_PendingKeys = List[Tuple[SignPart, Optional[int], List[bytes]]]


def _delta_key_count(blob: bytes) -> int:
    """A delta-binary blob's declared key count, once its length
    justifies it: each key costs a quarter flag byte and at least one
    payload byte after the u4 count."""
    n = int.from_bytes(blob[:4], "little")
    if len(blob) < 4 + (n + 3) // 4 + n:
        raise SerializationError(
            f"a {len(blob)}-byte delta-binary key blob cannot hold a key "
            f"count and the {n} keys it declares"
        )
    return n


def _read_keys(
    r: _Reader, part: SignPart, version: int, pending: _PendingKeys
) -> None:
    """Read a kind-0/1 part's key block.

    Its key count must be the part's nnz.  The count comes from bytes
    already present (4 per raw key; a blob header checked against the
    blob's length), so it bounds nnz before anything sized by nnz, such
    as an index decode, exists.
    """
    key_kind = r.unpack(_U8)
    if key_kind == _KEY_KIND_RAW:
        part.raw_keys = r.array("<u4").astype(np.int64)
        count, what = part.raw_keys.size, "raw keys"
    elif key_kind in (_KEY_KIND_DELTA, _KEY_KIND_RICE):
        if key_kind == _KEY_KIND_RICE and version < PAYLOAD_VERSION_V2:
            raise SerializationError(
                "key kind 2 (Rice-coded keys) is not valid in a v1 message"
            )
        blob = r.blob()
        if key_kind == _KEY_KIND_RICE:
            try:
                count = rice_key_count(blob)
            except ValueError as exc:
                raise SerializationError(f"corrupt key blob: {exc}") from None
            what = "Rice-coded keys"
        else:
            count, what = _delta_key_count(blob), "delta-binary keys"
        code = key_kind - 1 if version >= PAYLOAD_VERSION_V2 else None
        pending.append((part, code, [blob]))
    else:
        raise SerializationError(f"unknown key kind {key_kind}")
    if count != part.nnz:
        raise SerializationError(
            f"part nnz {part.nnz} disagrees with its {count} {what}"
        )


def _decode_keys(pending: _PendingKeys) -> None:
    """Decode a message's key blobs, one pass per code, into each part's
    :class:`GroupKeys`; a part's keys must number its nnz."""
    try:
        decoded = decode_key_parts([(code, blobs) for _, code, blobs in pending])
    except ValueError as exc:
        raise SerializationError(f"corrupt key blobs: {exc}") from None
    for (part, code, blobs), (concat, counts) in zip(pending, decoded):
        if concat.size != part.nnz:
            raise SerializationError(
                f"part nnz {part.nnz} disagrees with its {concat.size} keys"
            )
        part.group_keys = GroupKeys(concat, counts, code, blobs)


def _read_index_stream(r: _Reader, part: SignPart, version: int) -> None:
    marker = r.unpack(_U8)
    if marker == _MARKER_PACKED:
        part.index_bits = r.unpack(_U8)
        if not 1 <= part.index_bits <= 16:
            raise SerializationError(
                f"invalid packed index width {part.index_bits}"
            )
        part.packed_indexes = r.blob()
        if len(part.packed_indexes) != packed_size_bytes(part.nnz, part.index_bits):
            raise SerializationError(
                f"part nnz {part.nnz} disagrees with a "
                f"{len(part.packed_indexes)}-byte stream of "
                f"{part.index_bits}-bit indexes"
            )
    elif marker in (_MARKER_ENTROPY, _MARKER_RANS_RETIRED):
        if version < PAYLOAD_VERSION_V2:
            raise SerializationError(
                "entropy-coded indexes are not valid in a v1 message"
            )
        if marker == _MARKER_RANS_RETIRED:
            raise SerializationError(
                "index marker 3 (rANS-coded indexes) is retired; "
                "the peer must send marker 4 (dense radix)"
            )
        _read_entropy_indexes(r, part)
    else:
        dtype = {1: "u1", 2: "<u2"}.get(marker)
        if dtype is None:
            raise SerializationError(f"unknown index width {marker}")
        part.indexes = r.array(dtype).copy()
        if part.indexes.size != part.nnz:
            raise SerializationError(
                f"part nnz {part.nnz} disagrees with its "
                f"{part.indexes.size} indexes"
            )


def _read_part(
    r: _Reader, version: int, nnz_left: int, pending: _PendingKeys
) -> SignPart:
    sign = r.unpack(_I8)
    nnz = r.unpack(_U64)
    kind = r.unpack(_U8)
    if nnz > nnz_left:
        raise SerializationError(
            f"part nnz {nnz} exceeds the {nnz_left} keys the message nnz "
            f"leaves for it"
        )
    part = SignPart(sign=sign, nnz=nnz)
    if kind == _KIND_RAW:
        _read_keys(r, part, version, pending)
        part.raw_values = r.array("<f8").copy()
        if part.raw_values.size != nnz:
            raise SerializationError(
                f"part nnz {nnz} disagrees with its "
                f"{part.raw_values.size} values"
            )
    elif kind == _KIND_SKETCH:
        part.buckets = _read_buckets(r, version)
        num_blobs = r.unpack(_U8)
        code = r.unpack(_U8) if version >= PAYLOAD_VERSION_V2 else None
        pending.append((part, code, [r.blob() for _ in range(num_blobs)]))
        part.sketch = (
            _read_grouped(r) if version < PAYLOAD_VERSION_V2
            else _read_grouped_v2(r)
        )
        if num_blobs != part.sketch.num_groups:
            # One key blob per group sketch: a surplus blob has no
            # sketch to query, a missing one drops that group's keys.
            raise SerializationError(
                f"{num_blobs} group key blobs for "
                f"{part.sketch.num_groups} group sketches"
            )
    elif kind == _KIND_INDEXES:
        _read_keys(r, part, version, pending)
        part.buckets = _read_buckets(r, version)
        _read_index_stream(r, part, version)
    else:
        raise SerializationError(f"unknown part kind {kind}")
    return part


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def _build_message(
    message: CompressedGradient, version: int, entropy: bool
) -> _Writer:
    payload = message.payload
    if not isinstance(payload, SketchMLPayload):
        raise TypeError("only SketchML messages can be serialised here")
    if version not in SUPPORTED_PAYLOAD_VERSIONS:
        raise ValueError(f"unsupported payload version {version}")
    if entropy and version < PAYLOAD_VERSION_V2:
        raise ValueError("entropy coding requires payload version 2")
    w = _Writer()
    w.raw(_MAGIC)
    flags = _FLAG_DECAY if payload.decay_scale != 1.0 else 0
    if entropy:
        flags |= _FLAG_ENTROPY
    w.pack(_VERSION_FLAGS, version, flags)
    w.pack(_DIMENSION_NNZ, message.dimension, message.nnz)
    if flags & _FLAG_DECAY:
        w.pack(_F64, payload.decay_scale)
    w.pack(_U8, len(payload.parts))
    for part in payload.parts:
        _write_part(w, part, version, entropy)
    return w


def serialize_message(
    message: CompressedGradient,
    *,
    version: int = PAYLOAD_VERSION_V1,
    entropy: bool = False,
) -> bytes:
    """Serialise a SketchML message into a self-describing byte string.

    ``version`` selects the payload version (the runtime ships v2);
    the default (v1) byte stream is frozen by the golden
    fixtures.  ``entropy`` (v2 only) lets each part swap its
    bucket-index stream for a dense radix-coded one when that is
    smaller.

    Raises:
        TypeError: if the message was not produced by
            :class:`~repro.core.compressor.SketchMLCompressor`.
        ValueError: for an unsupported version/flag combination.
        SerializationError: at v1, for buckets decoded from v2 (they
            carry no splits); at v2, for a grouped sketch whose groups
            differ in shape or seed stride, or that holds a cell
            outside ``[0, index_range)`` other than the empty sentinel.
    """
    return _build_message(message, version, entropy).getvalue()


def wire_sections(message: CompressedGradient) -> Dict[str, int]:
    """Bytes per section of ``serialize_message(message, version=2)``.

    The writer tallies every piece it emits under ``header`` (message
    and part headers, decay scale), ``keys``, ``bucket_means``,
    ``sketch`` or ``values`` (raw values or bucket indexes), so the
    values sum to the wire length exactly.  This is how
    :class:`~repro.core.compressor.SketchMLCompressor` sizes its
    messages: payload v2 is what every runtime backend ships.
    """
    return _build_message(message, PAYLOAD_VERSION_V2, False).sections()


def iter_serialize_message(
    message: CompressedGradient,
    *,
    version: int = PAYLOAD_VERSION_V1,
    entropy: bool = False,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Iterator[bytes]:
    """Yield the exact :func:`serialize_message` bytes in bounded chunks.

    Every chunk except the last is exactly ``chunk_bytes`` long, and
    the concatenation equals the contiguous encoding bit for bit — but
    no buffer larger than ``chunk_bytes`` (plus one field) is ever
    joined, so a multi-GB gradient streams without materialising
    contiguously.
    """
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    w = _build_message(message, version, entropy)
    buf = bytearray()
    for piece in w.pieces():
        start = 0
        while start < len(piece):
            take = min(chunk_bytes - len(buf), len(piece) - start)
            buf += piece[start:start + take]
            start += take
            if len(buf) == chunk_bytes:
                yield bytes(buf)
                del buf[:]
    if buf:
        yield bytes(buf)


def _read_message(
    r: _Reader,
) -> Tuple[SketchMLPayload, int, int]:
    if r.raw(4) != _MAGIC:
        raise SerializationError("bad magic; not a SketchML message")
    version, flags = r.unpack(_VERSION_FLAGS)
    if version not in SUPPORTED_PAYLOAD_VERSIONS:
        raise SerializationError(f"unsupported version {version}")
    known = _FLAG_DECAY
    if version >= PAYLOAD_VERSION_V2:
        known |= _FLAG_ENTROPY
    if flags & ~known:
        raise SerializationError(
            f"unknown flags 0x{flags:02x} for version {version}"
        )
    dimension, nnz = r.unpack(_DIMENSION_NNZ)
    if nnz > r._budget:
        raise SerializationError(f"message nnz {nnz} exceeds the byte budget")
    decay_scale = 1.0
    if flags & _FLAG_DECAY:
        decay_scale = float(r.unpack(_F64))
        if not np.isfinite(decay_scale) or decay_scale <= 0.0:
            raise SerializationError(f"invalid decay scale {decay_scale}")
    num_parts = r.unpack(_U8)
    payload = SketchMLPayload(decay_scale=decay_scale)
    pending: _PendingKeys = []
    nnz_left = nnz
    for _ in range(num_parts):
        payload.parts.append(_read_part(r, version, nnz_left, pending))
        nnz_left -= payload.parts[-1].nnz
    if nnz_left:
        raise SerializationError(
            f"the parts hold {nnz - nnz_left} of the message's {nnz} keys"
        )
    if not r.exhausted:
        raise SerializationError("trailing bytes after message")
    _decode_keys(pending)
    return payload, int(dimension), int(nnz)


def deserialize_message(
    data: bytes, *, max_message_bytes: int = MAX_MESSAGE_BYTES
) -> CompressedGradient:
    """Rebuild a :class:`CompressedGradient` from wire bytes.

    The result decompresses (via
    :meth:`SketchMLCompressor.decompress`) to exactly the same keys and
    values as the original in-memory message; ``num_bytes`` is set to
    the actual wire length.  Declared lengths are clamped against
    ``max_message_bytes`` before any allocation.
    """
    if len(data) > max_message_bytes:
        raise SerializationError(
            f"{len(data)}-byte message exceeds the "
            f"{max_message_bytes}-byte budget"
        )
    r = _Reader(data, budget=max_message_bytes)
    payload, dimension, nnz = _read_message(r)
    return CompressedGradient(
        payload=payload,
        num_bytes=len(data),
        dimension=dimension,
        nnz=nnz,
    )


def deserialize_message_chunks(
    chunks: Iterable[bytes], *, max_message_bytes: int = MAX_MESSAGE_BYTES
) -> CompressedGradient:
    """Rebuild a message from an iterator of byte chunks.

    Equivalent to ``deserialize_message(b"".join(chunks))`` but the
    chunks are consumed incrementally and consumed prefixes are
    dropped, so peak memory is bounded by the largest single field, not
    the whole message.  This is the receive half of
    :func:`iter_serialize_message` (the transports deliver the chunk
    list from ``CHUNK``/``END`` frames).
    """
    total = 0

    def _counted() -> Iterator[bytes]:
        nonlocal total
        for chunk in chunks:
            total += len(chunk)
            yield chunk

    r = _Reader(source=_counted(), budget=max_message_bytes)
    payload, dimension, nnz = _read_message(r)
    return CompressedGradient(
        payload=payload,
        num_bytes=total,
        dimension=dimension,
        nnz=nnz,
    )
