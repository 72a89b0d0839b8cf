"""Wire-format stability tests for the codec kernels.

Two layers of protection:

* **Golden digests** — ``tests/golden/codec_golden.json`` stores the
  SHA-256 of the serialized wire bytes (and of the decoded output) for
  288 configuration/size/seed combinations, captured from the
  pre-vectorisation seed tree in the payload-v1 layout (written here by
  ``tests/payload_v1_reference.py``), plus each message's payload-v2
  length.  Any change to the bytes a compressor emits — however small —
  fails here, so perf work can't silently bend the format.
* **Reference equivalence** — every codec kernel has a scalar twin in
  ``tests/kernel_reference.py``; these tests assert byte identity
  between the two on the same inputs, from individual hash rows all
  the way up to full messages.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core.compressor import SketchMLCompressor
from repro.core.config import SketchMLConfig
from repro.core.delta_encoding import encode_key_groups, encode_key_groups_flat
from repro.core.minmax_sketch import GroupedMinMaxSketch, MinMaxSketch
from repro.core.quantizer import QuantileBucketQuantizer
from repro.core.serialization import serialize_message
from repro.sketch.hashing import build_hash_family, hash_all_grouped
from tests import kernel_reference
from tests.kernel_reference import reference_kernels
from tests.payload_v1_reference import serialize_v1

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "codec_golden.json")

# Keyword overrides for each golden configuration name.  These must
# stay in lockstep with the capture script that produced the golden
# file; they describe existing recorded data, not tunable knobs.
GOLDEN_CONFIGS = {
    "full": dict(),
    "full_tab": dict(hash_family="tabulation"),
    "full_decay": dict(compensate_decay=True),
    "full_g4": dict(num_groups=4, num_buckets=64),
    "quan": dict(enable_minmax=False),
    "quan_packed": dict(enable_minmax=False, pack_index_bits=True),
    "keys_only": dict(enable_quantization=False, enable_minmax=False),
    "adam": dict(
        enable_delta_keys=False, enable_quantization=False, enable_minmax=False
    ),
}


def golden_gradient(nnz, dimension, seed, sign_mode):
    """The exact generator the golden digests were captured with."""
    rng = np.random.default_rng(seed)
    if nnz == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
    values = rng.laplace(scale=0.01, size=nnz)
    values[values == 0.0] = 1e-4
    if sign_mode == "pos":
        values = np.abs(values)
    elif sign_mode == "neg":
        values = -np.abs(values)
    return keys, values


def random_gradient(nnz, seed):
    rng = np.random.default_rng(seed)
    dimension = max(10 * nnz, 64)
    keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
    values = rng.laplace(scale=0.01, size=nnz)
    values[values == 0.0] = 1e-4
    return keys, values, dimension


# ---------------------------------------------------------------------------
# golden digests
# ---------------------------------------------------------------------------
class TestGoldenDigests:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_PATH) as fh:
            return json.load(fh)

    def test_golden_file_is_complete(self, golden):
        assert len(golden) == 288
        seen_configs = {name.split("/")[0] for name in golden}
        assert seen_configs == set(GOLDEN_CONFIGS)

    @pytest.mark.parametrize("cfg_name", sorted(GOLDEN_CONFIGS))
    def test_wire_bytes_match_golden(self, golden, cfg_name):
        cases = {k: v for k, v in golden.items() if k.split("/")[0] == cfg_name}
        assert cases, f"no golden cases recorded for {cfg_name}"
        for name, entry in cases.items():
            _, _, nnz_s, sign_mode, seed_s = name.split("/")
            nnz, seed = int(nnz_s[3:]), int(seed_s[4:])
            dimension = max(10 * nnz, 64)
            cfg = SketchMLConfig(seed=seed, **GOLDEN_CONFIGS[cfg_name])
            keys, values = golden_gradient(nnz, dimension, seed, sign_mode)
            compressor = SketchMLCompressor(cfg)
            message = compressor.compress(keys, values, dimension)
            wire = serialize_v1(message)
            assert hashlib.sha256(wire).hexdigest() == entry["wire_sha256"], name
            assert len(wire) == entry["wire_bytes"], name
            assert message.num_bytes == entry["num_bytes"], name
            out_keys, out_values = compressor.decompress(message)
            decoded = hashlib.sha256(
                out_keys.tobytes() + out_values.tobytes()  # repro: noqa[wire-format] — digesting decoded arrays for golden comparison, not emitting wire bytes
            ).hexdigest()
            assert decoded == entry["decoded_sha256"], name


# ---------------------------------------------------------------------------
# reference vs production: full messages
# ---------------------------------------------------------------------------
EQUIV_CONFIGS = {
    "full": {},
    "full_tab": {"hash_family": "tabulation"},
    "full_decay": {"compensate_decay": True},
    "full_g4": {"num_groups": 4, "num_buckets": 64},
    "quan_packed": {"enable_minmax": False, "pack_index_bits": True},
}


@pytest.mark.parametrize("nnz", [500, 3000, 20000])
def test_scalar_and_vectorised_messages_identical(nnz):
    for cfg_name, overrides in EQUIV_CONFIGS.items():
        for seed in (0, 3):
            keys, values, dimension = random_gradient(nnz, seed + nnz)
            cfg = SketchMLConfig(seed=seed, **overrides)
            with reference_kernels():
                scalar_wire = serialize_message(
                    SketchMLCompressor(cfg).compress(keys, values, dimension)
                )
            vector_wire = serialize_message(
                SketchMLCompressor(cfg).compress(keys, values, dimension)
            )
            assert scalar_wire == vector_wire, (nnz, cfg_name, seed)


# ---------------------------------------------------------------------------
# reference vs production: individual kernels
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("family", ["multiply_shift", "tabulation"])
def test_hash_all_matches_per_row_loop(family):
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 1 << 32, size=4096, dtype=np.uint64)
    hashes = build_hash_family(3, 613, seed=11, family=family)
    grid = hashes.hash_all(keys)
    assert grid.shape == (3, keys.size)
    for row in range(3):
        np.testing.assert_array_equal(grid[row], hashes[row](keys))


def test_hash_all_grouped_matches_per_family_concat():
    rng = np.random.default_rng(8)
    counts = np.array([700, 0, 130, 2048], dtype=np.int64)
    keys = rng.integers(0, 1 << 32, size=int(counts.sum()), dtype=np.uint64)
    families = [
        build_hash_family(2, 509, seed=100 + g, family="multiply_shift")
        for g in range(counts.size)
    ]
    fused = hash_all_grouped(families, keys, counts)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    expected = np.concatenate(
        [
            families[g].hash_all(keys[bounds[g]:bounds[g + 1]])
            for g in range(counts.size)
        ],
        axis=1,
    )
    np.testing.assert_array_equal(fused, expected)


def test_hash_all_grouped_mixed_bin_widths():
    rng = np.random.default_rng(9)
    counts = np.array([400, 300], dtype=np.int64)
    keys = rng.integers(0, 1 << 32, size=700, dtype=np.uint64)
    families = [
        build_hash_family(2, bins, seed=5, family="multiply_shift")
        for bins in (613, 1021)
    ]
    fused = hash_all_grouped(families, keys, counts)
    expected = np.concatenate(
        [families[0].hash_all(keys[:400]), families[1].hash_all(keys[400:])],
        axis=1,
    )
    np.testing.assert_array_equal(fused, expected)


def test_fit_encode_matches_fit_then_encode():
    rng = np.random.default_rng(21)
    values = rng.laplace(scale=0.01, size=6000)
    values[values == 0.0] = 1e-4

    def build():
        return QuantileBucketQuantizer(num_buckets=64)

    fused = build()
    pos_enc, neg_enc = fused.fit_encode(values)
    with reference_kernels():
        reference = build()
        ref_pos, ref_neg = reference.fit_encode(values)
    np.testing.assert_array_equal(pos_enc, ref_pos)
    np.testing.assert_array_equal(neg_enc, ref_neg)
    for got, want in ((fused.positive, reference.positive),
                      (fused.negative, reference.negative)):
        np.testing.assert_array_equal(got.splits, want.splits)
        np.testing.assert_array_equal(got.means, want.means)


@pytest.mark.parametrize(
    "num_groups,index_range", [(8, 128), (8, 8), (4, 300), (8, 100)]
)
def test_partition_flat_matches_mask_loop(num_groups, index_range):
    rng = np.random.default_rng(index_range)
    nnz = 5000
    keys = np.sort(rng.choice(20 * nnz, size=nnz, replace=False))
    indexes = rng.integers(0, index_range, size=nnz, dtype=np.int64)
    sketch = GroupedMinMaxSketch(num_groups=num_groups, index_range=index_range)
    got = sketch.partition_flat(keys, indexes)
    want = kernel_reference.partition_flat(sketch, keys, indexes)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("family", ["multiply_shift", "tabulation"])
@pytest.mark.parametrize("index_range", [128, 300])
def test_minmax_insert_and_query_match_per_row_reference(family, index_range):
    rng = np.random.default_rng(index_range)
    keys = rng.choice(1 << 24, size=6000, replace=False)
    indexes = rng.integers(0, index_range, size=keys.size, dtype=np.int64)

    def build():
        return MinMaxSketch(
            num_rows=3, num_bins=701, index_range=index_range, seed=9,
            hash_family=family,
        )

    fused, reference = build(), build()
    for half in (slice(0, 3000), slice(3000, None)):  # second insert merges
        fused.insert_many(keys[half], indexes[half])
        kernel_reference.minmax_insert_many(reference, keys[half], indexes[half])
    np.testing.assert_array_equal(fused._table, reference._table)
    np.testing.assert_array_equal(
        fused.query_many(keys), kernel_reference.minmax_query_many(reference, keys)
    )


def test_insert_flat_matches_per_group_insert():
    rng = np.random.default_rng(33)
    nnz = 8000
    keys = np.sort(rng.choice(20 * nnz, size=nnz, replace=False))
    # Group widths 16 (fused scatter), 1 and 38 (per-group inserts).
    for index_range in (128, 8, 300):
        indexes = rng.integers(0, index_range, size=nnz, dtype=np.int64)

        def build():
            return GroupedMinMaxSketch(
                num_groups=8, index_range=index_range, num_rows=2,
                total_bins=2048, seed=1,
            )

        batched, reference = build(), build()
        # Two batches: the second merges into tables the first filled.
        for half in (slice(0, nnz // 2), slice(nnz // 2, None)):
            flat = batched.partition_flat(keys[half], indexes[half])
            batched.insert_flat(*flat)
            with reference_kernels():
                reference.insert_flat(*flat)
        for got, want in zip(batched.sketches, reference.sketches):
            np.testing.assert_array_equal(got._table, want._table)


def test_encode_key_groups_matches_per_group_encode_keys():
    rng = np.random.default_rng(44)
    groups = []
    for size in (0, 1, 37, 4000):
        chunk = np.sort(rng.choice(1 << 22, size=size, replace=False))
        groups.append(chunk.astype(np.int64))
    blobs = encode_key_groups(groups)
    assert blobs == kernel_reference.encode_key_groups(groups)
    concat = np.concatenate(groups)
    sizes = np.asarray([g.size for g in groups], dtype=np.int64)
    assert encode_key_groups_flat(concat, sizes) == blobs
    assert kernel_reference.encode_key_groups_flat(concat, sizes) == blobs
