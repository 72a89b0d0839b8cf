"""Reference writer for the retired payload-v1 message layout.

The package reads and writes payload v2 only, and its reader rejects a
v1 header by name.  The committed ``tests/golden/wire/*.bin`` fixtures
keep the v1 bytes as frozen data; this writer reproduces them byte for
byte (``tests/test_golden_wire.py`` pins that), so the tests can still
build v1 messages: the "v2 is never larger than v1" properties and the
must-fail inputs of the retired format.  It needs no reader.

The v1 layout (all integers little-endian)::

    header:   magic "SKML" | version u8 = 1 | flags u8 | dimension u64
              | nnz u64 | [decay_scale f64] | num_parts u8
    per part: sign i8 | nnz u64 | kind u8
      kind 0 (raw values):      key block, values f64[]
      kind 1 (indexes):         key block, bucket block, index marker u8,
                                indexes
      kind 2 (grouped sketch):  bucket block, num_blobs u8 + one
                                delta-binary key blob per group,
                                num_groups u8 | index_range u32, then one
                                sketch block per group
    key block:     key_kind u8: 0 = u4[] keys, 1 = one delta-binary blob
    bucket block:  num_buckets u16 | sign i8 | splits f64[q+1] | means f64[q]
    sketch block:  rows u8 | bins u32 | index_range u32 | seed i64 |
                   hash_family u8 | cell_width u8 | table bytes

Blobs and arrays are length-prefixed (u64).  It has no entropy flag,
no Rice keys and no f32 means.
"""

from typing import List

import numpy as np

from repro.core import serialization as wire
from repro.core.delta_encoding import encode_key_groups_flat
from repro.core.rice import KEY_CODE_RICE

__all__ = ["v1_pieces", "serialize_v1"]


def _delta_blobs(keys) -> List[bytes]:
    # ``compress`` codes the keys once in the v2 key code; v1 ships
    # delta-binary only, so Rice blobs are transcoded.
    if keys.code == KEY_CODE_RICE:
        return encode_key_groups_flat(keys.concat, keys.counts)
    return list(keys.blobs)


def _write_keys(w, part) -> None:
    if part.group_keys is None:
        w.pack(wire._U8, 0)
        w.array(np.asarray(part.raw_keys, dtype="<u4"))
        return
    (blob,) = _delta_blobs(part.group_keys)
    w.pack(wire._U8, 1)
    w.blob(blob)


def _write_buckets(w, buckets) -> None:
    w.pack(wire._U16, buckets.num_buckets)
    w.pack(wire._I8, 1 if buckets.sign > 0 else -1)
    w.array(np.asarray(buckets.splits, dtype="<f8"))
    w.array(np.asarray(buckets.means, dtype="<f8"))


def _write_sketch(w, grouped) -> None:
    w.pack(wire._GROUPED_HEADER, grouped.num_groups, grouped.index_range)
    for sketch in grouped.sketches:
        itemsize = sketch._table.dtype.itemsize
        w.pack(
            wire._SKETCH_HEADER, sketch.num_rows, sketch.num_bins,
            sketch.index_range, sketch._master_seed,
            wire._HASH_FAMILIES.index(sketch._hash_family_name), itemsize,
        )
        w.array(np.asarray(sketch._table, dtype=f"<u{itemsize}"))


def _write_indexes(w, part) -> None:
    if part.packed_indexes is not None:
        w.pack(wire._U8, 0)
        w.pack(wire._U8, part.index_bits)
        w.blob(part.packed_indexes)
        return
    itemsize = np.asarray(part.indexes).dtype.itemsize
    w.pack(wire._U8, itemsize)
    w.array(np.asarray(part.indexes, dtype=f"<u{itemsize}"))


def v1_pieces(message) -> List[bytes]:
    """The v1 bytes of ``message`` as the pieces they are written in
    (a u64 field or length prefix is a piece of its own)."""
    payload = message.payload
    w = wire._Writer()
    w.raw(b"SKML")
    decay = payload.decay_scale != 1.0
    w.pack(wire._VERSION_FLAGS, 1, 1 if decay else 0)
    w.pack(wire._DIMENSION_NNZ, message.dimension, message.nnz)
    if decay:
        w.pack(wire._F64, payload.decay_scale)
    w.pack(wire._U8, len(payload.parts))
    for part in payload.parts:
        w.pack(wire._I8, part.sign)
        w.pack(wire._U64, part.nnz)
        if part.raw_values is not None:
            w.pack(wire._U8, 0)
            _write_keys(w, part)
            w.array(np.asarray(part.raw_values, dtype="<f8"))
        elif part.sketch is not None:
            w.pack(wire._U8, 2)
            _write_buckets(w, part.buckets)
            blobs = _delta_blobs(part.group_keys)
            w.pack(wire._U8, len(blobs))
            for blob in blobs:
                w.blob(blob)
            _write_sketch(w, part.sketch)
        else:
            w.pack(wire._U8, 1)
            _write_keys(w, part)
            _write_buckets(w, part.buckets)
            _write_indexes(w, part)
    return w.pieces()


def serialize_v1(message) -> bytes:
    """``message`` in the payload-v1 layout.  Its buckets need their
    splits, which only an encoder's own message has (a decoded message
    has ``splits=None``)."""
    return b"".join(v1_pieces(message))
