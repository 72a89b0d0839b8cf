"""The two flat decode kernels against their per-group twins.

``decode_key_groups_flat`` must equal a per-blob ``decode_keys`` walk
(same keys, same error text on malformed blobs) and
``GroupedMinMaxSketch.query_flat`` must equal a per-group
``query_group`` walk (same indexes, same strict-mode error).  Each
check runs on the package's kernels (``vectorised``) and on the scalar
twins of ``tests/kernel_reference.py`` (``scalar``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compressor import SketchMLCompressor
from repro.core.config import SketchMLConfig
from repro.core.delta_encoding import (
    decode_key_groups_flat,
    decode_keys,
    encode_key_groups_flat,
    encode_keys,
)
from repro.core.minmax_sketch import GroupedMinMaxSketch, MinMaxSketch
from repro.core.serialization import deserialize_message, serialize_message
from repro.sanitize import SanitizerError
from tests.kernel_reference import KERNEL_PATHS, kernel_path, reference_kernels


@pytest.fixture(params=sorted(KERNEL_PATHS))
def codec_path(request):
    with kernel_path(request.param):
        yield request.param


# ---------------------------------------------------------------------------
# decode_key_groups_flat
# ---------------------------------------------------------------------------
def _concat(groups):
    arrays = [np.asarray(g, dtype=np.int64) for g in groups]
    sizes = np.asarray([a.size for a in arrays], dtype=np.int64)
    if not arrays:
        return np.empty(0, dtype=np.int64), sizes
    return np.concatenate(arrays), sizes


def _assert_flat_roundtrip(groups):
    concat, sizes = _concat(groups)
    blobs = encode_key_groups_flat(concat, sizes)
    for path in KERNEL_PATHS:
        with kernel_path(path):
            keys, counts = decode_key_groups_flat(blobs)
        assert keys.dtype == np.int64 and counts.dtype == np.int64
        np.testing.assert_array_equal(keys, concat)
        np.testing.assert_array_equal(counts, sizes)


# One delta per byte width (1, 2, 3 and 4 bytes); groups stay short
# enough that the running sum cannot pass 2**32 - 1.
_DELTA = st.one_of(
    st.integers(1, 0xFF),
    st.integers(0x100, 0xFFFF),
    st.integers(0x1_0000, 0xFF_FFFF),
    st.integers(0x100_0000, 0x800_0000),
)


@st.composite
def _key_group(draw):
    size = draw(st.integers(0, 24))
    if size == 0:
        return []
    first = draw(st.one_of(st.just(0), _DELTA))  # a group may start at key 0
    rest = draw(st.lists(_DELTA, min_size=size - 1, max_size=size - 1))
    return np.cumsum([first] + rest).tolist()


@given(groups=st.lists(_key_group(), min_size=0, max_size=10))
@settings(max_examples=150, deadline=None)
def test_flat_decode_inverts_flat_encode(groups):
    _assert_flat_roundtrip(groups)


@pytest.mark.parametrize(
    "groups",
    [
        [[], [], [], [], [], [], [], []],  # all empty
        [[], [], [3, 9, 700], [1]],  # leading empties
        [[5], [0, 1, 2, 3, 4], [], []],  # trailing empties, starts at key 0
        [[0], [0], [0]],  # every group is the single key 0
        [[1, 2, 3], [4, 5, 6, 7, 8], [9], [10, 11]],  # sizes not multiples of 4
        [[7, 300, 70_000, 20_000_000, 2**32 - 1], [2**32 - 1]],  # all widths
        [list(range(0, 4000, 3)), list(range(1, 9000, 7))],
    ],
)
def test_flat_decode_corner_cases(groups):
    _assert_flat_roundtrip(groups)


def test_flat_decode_ignores_padding_flag_bits(codec_path):
    """Flag slots past a group's last key carry no key: any bits there
    are ignored, exactly as ``decode_keys`` ignores them."""
    blob = bytearray(encode_keys(np.asarray([3, 10, 500])))
    blob[4] |= 0b11 << 6  # the fourth (unused) slot of the flag byte
    blobs = [bytes(blob), encode_keys(np.asarray([1, 2]))]
    keys, counts = decode_key_groups_flat(blobs)
    np.testing.assert_array_equal(keys, [3, 10, 500, 1, 2])
    np.testing.assert_array_equal(counts, [3, 2])


def _eight_blobs():
    rng = np.random.default_rng(5)
    sizes = [40, 0, 17, 300, 1, 0, 64, 9]
    groups = [
        np.sort(rng.choice(1 << 26, size=n, replace=False)).astype(np.int64)
        for n in sizes
    ]
    concat, counts = _concat(groups)
    return encode_key_groups_flat(concat, counts)


@pytest.mark.parametrize("victim", range(8))
def test_flat_decode_malformed_blob_raises_decode_keys_error(codec_path, victim):
    blobs = _eight_blobs()
    good = blobs[victim]
    mutations = [good + b"\x00", good[:2]]  # padded; cut inside the header
    if len(good) > 4:
        num_keys = int.from_bytes(good[:4], "little")
        flags_end = 4 + (num_keys + 3) // 4
        mutations += [
            good[:-1],  # cut inside the payload
            good[:flags_end],  # payload gone
            good[:flags_end - 1],  # cut inside the flag section
        ]
    for bad in mutations:
        with pytest.raises(ValueError) as expected:
            decode_keys(bad)
        forged = list(blobs)
        forged[victim] = bad
        with pytest.raises(ValueError) as got:
            decode_key_groups_flat(forged)
        assert str(got.value) == str(expected.value)


def test_flat_decode_reports_the_first_bad_blob(codec_path):
    blobs = _eight_blobs()
    blobs[3] = blobs[3][:-1]  # payload length mismatch
    blobs[6] = blobs[6][:3]  # short header, but later in the walk
    with pytest.raises(ValueError, match="payload length mismatch"):
        decode_key_groups_flat(blobs)


# ---------------------------------------------------------------------------
# GroupedMinMaxSketch.query_flat
# ---------------------------------------------------------------------------
def _filled_sketch(nnz, index_range, num_groups=8, family="multiply_shift", seed=0):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(20 * nnz + 64, size=nnz, replace=False))
    indexes = rng.integers(0, index_range, size=nnz, dtype=np.int64)
    sketch = GroupedMinMaxSketch(
        num_groups=num_groups,
        index_range=index_range,
        num_rows=2,
        total_bins=max(64, nnz // 5),
        seed=seed,
        hash_family=family,
    )
    sorted_keys, sorted_offsets, counts = sketch.partition_flat(keys, indexes)
    sketch.insert_flat(sorted_keys, sorted_offsets, counts)
    return sketch, sorted_keys, counts


def _per_group_walk(sketch, keys_cat, counts, strict=False):
    bounds = np.concatenate(([0], np.cumsum(counts)))
    chunks = [
        sketch.query_group(g, keys_cat[bounds[g]:bounds[g + 1]], strict=strict)
        for g in range(counts.size)
        if counts[g]
    ]
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


@pytest.mark.parametrize("family", ["multiply_shift", "tabulation"])
@pytest.mark.parametrize(
    "nnz,index_range,num_groups",
    [
        (1, 8, 8),  # group_width == 1: what a tiny message gets (q = 8)
        (7, 8, 8),
        (64, 8, 8),
        (300, 100, 8),  # width 13: not a power of two, last band is short
        (5000, 128, 8),
        (5000, 256, 4),
        (2000, 300, 8),  # uint16 cells
    ],
)
def test_query_flat_matches_per_group_walk(
    codec_path, family, nnz, index_range, num_groups
):
    sketch, keys_cat, counts = _filled_sketch(
        nnz, index_range, num_groups, family, seed=nnz
    )
    with reference_kernels():
        expected = _per_group_walk(sketch, keys_cat, counts)
    got = sketch.query_flat(keys_cat, counts)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(
        sketch.query_flat(keys_cat, counts, strict=True), expected
    )


def test_query_flat_empty_and_count_validation(codec_path):
    sketch, keys_cat, counts = _filled_sketch(200, 128)
    empty = sketch.query_flat(
        np.empty(0, dtype=np.int64), np.zeros(8, dtype=np.int64)
    )
    assert empty.size == 0 and empty.dtype == np.int64
    with pytest.raises(ValueError, match="group counts"):
        sketch.query_flat(keys_cat, counts[:-1])
    with pytest.raises(ValueError, match="sum to"):
        sketch.query_flat(keys_cat[:-1], counts)


def _swap_group_sketch(sketch, group, **overrides):
    """An empty stand-in for one group's sketch with a different shape —
    a mix only a hand-built part can have."""
    old = sketch._sketches[group]
    params = dict(
        num_rows=old.num_rows,
        num_bins=old.num_bins,
        index_range=old.index_range,
        seed=old._master_seed,
        hash_family=old._hash_family_name,
    )
    params.update(overrides)
    return MinMaxSketch(**params)


@pytest.mark.parametrize(
    "overrides",
    [
        {"num_bins": 37},
        {"num_rows": 3},
        {"hash_family": "tabulation"},
        {"index_range": 300},  # uint16 cells next to uint8 ones
    ],
)
def test_query_flat_heterogeneous_groups_fall_back(codec_path, overrides):
    rng = np.random.default_rng(9)
    nnz = 3000
    keys = np.sort(rng.choice(20 * nnz, size=nnz, replace=False))
    indexes = rng.integers(0, 128, size=nnz, dtype=np.int64)
    sketch = GroupedMinMaxSketch(
        num_groups=8, index_range=128, num_rows=2, total_bins=800, seed=4
    )
    sketch._sketches[5] = _swap_group_sketch(sketch, 5, **overrides)
    assert not sketch._fusable()
    sorted_keys, sorted_offsets, counts = sketch.partition_flat(keys, indexes)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    for g in range(counts.size):  # the batched insert assumes one shape too
        sketch.insert_group(
            g,
            sorted_keys[bounds[g]:bounds[g + 1]],
            sorted_offsets[bounds[g]:bounds[g + 1]],
        )
    with reference_kernels():
        expected = _per_group_walk(sketch, sorted_keys, counts)
    np.testing.assert_array_equal(
        sketch.query_flat(sorted_keys, counts), expected
    )


@pytest.mark.parametrize("group", [0, 3, 7])
def test_query_flat_strict_raises_the_per_group_error(codec_path, group):
    sketch, keys_cat, counts = _filled_sketch(4000, 128, seed=2)
    inner = sketch._sketches[group]
    inner._table[:] = inner._sentinel  # every cell of one group overflows
    with pytest.raises(SanitizerError) as expected:
        _per_group_walk(sketch, keys_cat, counts, strict=True)
    with pytest.raises(SanitizerError) as got:
        sketch.query_flat(keys_cat, counts, strict=True)
    assert str(got.value) == str(expected.value)
    assert got.value.offset == expected.value.offset == 0
    assert got.value.invariant == expected.value.invariant
    # Without strict the overflow clips to the top of the group band.
    np.testing.assert_array_equal(
        sketch.query_flat(keys_cat, counts),
        _per_group_walk(sketch, keys_cat, counts),
    )


def test_query_flat_strict_offset_is_group_local(codec_path):
    sketch, keys_cat, counts = _filled_sketch(4000, 128, seed=6)
    group = 4
    bounds = np.concatenate(([0], np.cumsum(counts)))
    victim = keys_cat[bounds[group] + 11]
    inner = sketch._sketches[group]
    for row, h in enumerate(inner._hashes):
        inner._table[row, h.hash_one(int(victim))] = inner._sentinel
    with pytest.raises(SanitizerError) as expected:
        _per_group_walk(sketch, keys_cat, counts, strict=True)
    with pytest.raises(SanitizerError) as got:
        sketch.query_flat(keys_cat, counts, strict=True)
    assert str(got.value) == str(expected.value)
    assert got.value.offset == expected.value.offset <= 11


# ---------------------------------------------------------------------------
# the compressor on top of both
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"hash_family": "tabulation"},
        {"num_groups": 4, "num_buckets": 64},
        {"compensate_decay": True},
    ],
)
@pytest.mark.parametrize("nnz", [1, 5, 64, 700, 6000])
def test_decompress_identical_across_kernel_modes(nnz, overrides):
    rng = np.random.default_rng(nnz)
    dimension = 50 * nnz + 100
    keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
    values = rng.laplace(scale=0.01, size=nnz)
    values[values == 0.0] = 1e-4
    cfg = SketchMLConfig(**overrides)
    wire = serialize_message(SketchMLCompressor(cfg).compress(keys, values, dimension))
    decoded = {}
    for path in KERNEL_PATHS:
        with kernel_path(path):
            decoded[path] = SketchMLCompressor(cfg).decompress(
                deserialize_message(wire)
            )
    np.testing.assert_array_equal(decoded["scalar"][0], keys)
    np.testing.assert_array_equal(decoded["vectorised"][0], keys)
    np.testing.assert_array_equal(decoded["scalar"][1], decoded["vectorised"][1])
