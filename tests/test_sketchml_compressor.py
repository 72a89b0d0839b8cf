"""End-to-end tests for the SketchML compressor (Figure 2 pipeline)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.compression.base import CompressedGradient
from repro.core import SketchMLCompressor, SketchMLConfig
from repro.core.compressor import GroupKeys
from repro.core.delta_encoding import decode_keys
from repro.core.rice import KEY_CODE_DELTA
from repro.core.serialization import (
    SerializationError,
    deserialize_message,
    serialize_message,
)


def make_gradient(nnz=3_000, dimension=100_000, seed=0, scale=0.01):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
    values = rng.laplace(scale=scale, size=nnz)
    values[values == 0.0] = scale / 10
    return keys, values, dimension


ABLATION_CONFIGS = [
    SketchMLConfig.adam(),
    SketchMLConfig.keys_only(),
    SketchMLConfig.keys_and_quantization(),
    SketchMLConfig.full(),
]


class TestConfig:
    def test_minmax_requires_quantization(self):
        with pytest.raises(ValueError, match="requires enable_quantization"):
            SketchMLConfig(enable_quantization=False, enable_minmax=True)

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            SketchMLConfig(num_buckets=1)
        with pytest.raises(ValueError):
            SketchMLConfig(minmax_rows=0)
        with pytest.raises(ValueError):
            SketchMLConfig(num_groups=0)
        with pytest.raises(TypeError):
            SketchMLConfig(quantile_sketch="bogus")  # a constant, not a field

    # Values the sketch headers cannot carry must fail here, not as a
    # raw ``struct.error`` inside ``compress``.
    def _overrides_id(overrides):
        return ",".join(f"{k}={v}" for k, v in overrides.items())

    _SEED_LIMIT = 2**63 - 1 - 7_919 - 1_009 * 7  # default num_groups = 8

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(minmax_rows=256),
            dict(num_groups=256),
            dict(num_buckets=600, num_groups=300),
            dict(seed=-1),
            dict(seed=2**63),
            dict(seed=_SEED_LIMIT + 1),
            dict(seed=_SEED_LIMIT - 1_009 + 1, num_groups=9),
            dict(minmax_cols_factor=float("inf")),
            dict(minmax_cols_factor=float("nan")),
        ],
        ids=_overrides_id,
    )
    def test_rejects_values_the_wire_cannot_carry(self, overrides):
        with pytest.raises(ValueError):
            SketchMLConfig(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(minmax_rows=255),
            dict(num_buckets=600, num_groups=255),
            dict(seed=_SEED_LIMIT),
        ],
        ids=_overrides_id,
    )
    def test_wire_limits_themselves_roundtrip(self, overrides):
        keys, values, dimension = make_gradient(nnz=20_000, dimension=400_000)
        comp = SketchMLCompressor(SketchMLConfig(**overrides))
        message = comp.compress(keys, values, dimension)
        message = deserialize_message(serialize_message(message))
        out_keys, out_values = comp.decompress(message)
        np.testing.assert_array_equal(out_keys, keys)
        assert np.all(np.sign(out_values) == np.sign(values))

    def test_ablation_labels(self):
        labels = [cfg.ablation_label for cfg in ABLATION_CONFIGS]
        assert labels == [
            "Adam",
            "Adam+Key",
            "Adam+Key+Quan",
            "Adam+Key+Quan+MinMax",
        ]

    def test_with_overrides(self):
        cfg = SketchMLConfig().with_overrides(num_buckets=64)
        assert cfg.num_buckets == 64
        assert SketchMLConfig().num_buckets == 128  # original untouched

    def test_minmax_total_bins(self):
        cfg = SketchMLConfig(minmax_cols_factor=0.2, minmax_min_cols=64)
        assert cfg.minmax_total_bins(10_000) == 2_000
        assert cfg.minmax_total_bins(10) == 64


class TestRoundtrip:
    @pytest.mark.parametrize("config", ABLATION_CONFIGS, ids=lambda c: c.ablation_label)
    def test_keys_always_lossless(self, config):
        keys, values, dim = make_gradient(seed=1)
        comp = SketchMLCompressor(config)
        out_keys, out_values, _ = comp.roundtrip(keys, values, dim)
        np.testing.assert_array_equal(out_keys, keys)
        assert out_values.size == values.size

    @pytest.mark.parametrize("config", ABLATION_CONFIGS, ids=lambda c: c.ablation_label)
    def test_signs_never_flip(self, config):
        keys, values, dim = make_gradient(seed=2)
        comp = SketchMLCompressor(config)
        _, out_values, _ = comp.roundtrip(keys, values, dim)
        assert np.all(np.sign(out_values) == np.sign(values))

    def test_unquantized_paths_are_exact(self):
        keys, values, dim = make_gradient(seed=3)
        for config in (SketchMLConfig.adam(), SketchMLConfig.keys_only()):
            _, out_values, _ = SketchMLCompressor(config).roundtrip(
                keys, values, dim
            )
            np.testing.assert_allclose(out_values, values)

    def test_full_pipeline_decays_magnitudes(self):
        """MinMaxSketch underestimates: |decoded| <= max bucket mean and
        the mean magnitude never grows."""
        keys, values, dim = make_gradient(seed=4)
        comp = SketchMLCompressor(SketchMLConfig.full())
        _, out_values, _ = comp.roundtrip(keys, values, dim)
        assert np.abs(out_values).mean() <= np.abs(values).mean() * 1.05

    def test_empty_gradient(self):
        comp = SketchMLCompressor()
        keys = np.asarray([], dtype=np.int64)
        values = np.asarray([], dtype=np.float64)
        out_keys, out_values, msg = comp.roundtrip(keys, values, 1_000)
        assert out_keys.size == 0
        assert out_values.size == 0
        assert msg.num_bytes > 0  # header only

    def test_single_pair(self):
        comp = SketchMLCompressor()
        out_keys, out_values, _ = comp.roundtrip(
            np.asarray([42]), np.asarray([-0.5]), 1_000
        )
        assert out_keys.tolist() == [42]
        assert out_values[0] == pytest.approx(-0.5)

    def test_all_positive_gradient(self):
        rng = np.random.default_rng(5)
        keys = np.sort(rng.choice(10_000, size=500, replace=False))
        values = np.abs(rng.laplace(scale=0.1, size=500)) + 1e-6
        out_keys, out_values, _ = SketchMLCompressor().roundtrip(keys, values, 10_000)
        np.testing.assert_array_equal(out_keys, keys)
        assert np.all(out_values > 0)

    def test_tiny_dimension(self):
        keys = np.asarray([0, 1, 2])
        values = np.asarray([0.5, -0.25, 0.125])
        out_keys, out_values, _ = SketchMLCompressor().roundtrip(keys, values, 3)
        np.testing.assert_array_equal(out_keys, keys)
        assert np.all(np.sign(out_values) == np.sign(values))


class TestByteAccounting:
    def test_compression_rates_increase_down_the_stack(self):
        """Fig. 8(b): each added component increases the rate."""
        keys, values, dim = make_gradient(nnz=8_000, seed=6)
        rates = []
        for config in ABLATION_CONFIGS:
            msg = SketchMLCompressor(config).compress(keys, values, dim)
            rates.append(msg.compression_rate)
        assert rates[0] == pytest.approx(1.0, rel=0.01)  # header overhead only
        assert rates[1] > rates[0]
        assert rates[2] > rates[1]
        assert rates[3] > rates[2]

    def test_breakdown_sums_to_total(self):
        keys, values, dim = make_gradient(seed=7)
        for config in ABLATION_CONFIGS:
            msg = SketchMLCompressor(config).compress(keys, values, dim)
            assert sum(msg.breakdown.values()) == msg.num_bytes

    def test_raw_bytes_is_12d(self):
        keys, values, dim = make_gradient(nnz=1_000, seed=8)
        msg = SketchMLCompressor().compress(keys, values, dim)
        assert msg.raw_bytes == 12_000

    def test_space_formula_of_section_3_5(self):
        """Total ≈ d(keys) + 8q(means) + s*t(sketch) + headers."""
        keys, values, dim = make_gradient(nnz=4_000, seed=9)
        cfg = SketchMLConfig.full()
        msg = SketchMLCompressor(cfg).compress(keys, values, dim)
        # Means plus each sign part's 11-byte block header (bucket
        # count, sign, length prefix).
        assert msg.breakdown["bucket_means"] <= 8 * cfg.num_buckets + 2 * 11
        expected_sketch = cfg.minmax_rows * cfg.minmax_total_bins(4_000)
        # Two sign sketches share the per-sign nnz; allow rounding slack.
        assert msg.breakdown["sketch"] <= 2 * expected_sketch + 64

    def test_quan_without_minmax_charges_one_byte_per_value(self):
        keys, values, dim = make_gradient(nnz=2_000, seed=10)
        msg = SketchMLCompressor(SketchMLConfig.keys_and_quantization()).compress(
            keys, values, dim
        )
        # One byte per index plus each sign part's index width marker
        # and u64 length prefix.
        assert msg.breakdown["values"] == 2_000 + 2 * 9

    def test_pack_index_bits_saves_space_and_roundtrips(self):
        keys, values, dim = make_gradient(nnz=4_000, seed=15)
        plain_cfg = SketchMLConfig.keys_and_quantization()
        packed_cfg = SketchMLConfig.keys_and_quantization(pack_index_bits=True)
        plain_msg = SketchMLCompressor(plain_cfg).compress(keys, values, dim)
        packed = SketchMLCompressor(packed_cfg)
        out_keys, out_values, packed_msg = packed.roundtrip(keys, values, dim)
        np.testing.assert_array_equal(out_keys, keys)
        # Same decoded values as the byte-aligned variant.
        _, plain_values = SketchMLCompressor(plain_cfg).decompress(plain_msg)
        np.testing.assert_allclose(out_values, plain_values)
        # And strictly smaller on the wire (q=128 → 7 bits/index).
        assert packed_msg.num_bytes < plain_msg.num_bytes


class TestDecodeErrors:
    def test_decompress_foreign_payload_rejected(self):
        comp = SketchMLCompressor()
        fake = CompressedGradient(payload=("x",), num_bytes=1, dimension=10, nnz=0)
        with pytest.raises(TypeError, match="SketchMLCompressor"):
            comp.decompress(fake)

    def test_decoded_quantization_error_bounded_by_buckets(self):
        keys, values, dim = make_gradient(nnz=5_000, seed=11)
        small = SketchMLCompressor(SketchMLConfig.full(num_buckets=16))
        large = SketchMLCompressor(SketchMLConfig.full(num_buckets=256))
        _, v_small, _ = small.roundtrip(keys, values, dim)
        _, v_large, _ = large.roundtrip(keys, values, dim)
        err_small = np.mean((v_small - values) ** 2)
        err_large = np.mean((v_large - values) ** 2)
        assert err_large < err_small

    def test_grouping_reduces_decode_error(self):
        keys, values, dim = make_gradient(nnz=5_000, seed=12)
        errs = {}
        for groups in (1, 8):
            comp = SketchMLCompressor(
                SketchMLConfig.full(num_groups=groups, minmax_cols_factor=0.05)
            )
            _, decoded, _ = comp.roundtrip(keys, values, dim)
            errs[groups] = float(np.mean(np.abs(decoded - values)))
        assert errs[8] <= errs[1]

    def test_seed_consistency_between_instances(self):
        """Encoder and decoder built separately must agree (same seed)."""
        keys, values, dim = make_gradient(seed=13)
        cfg = SketchMLConfig.full(seed=99)
        msg = SketchMLCompressor(cfg).compress(keys, values, dim)
        out_keys, out_values = SketchMLCompressor(cfg).decompress(msg)
        np.testing.assert_array_equal(out_keys, keys)
        assert np.all(np.sign(out_values) == np.sign(values))


class TestDecodedKeysBelongToTheMessage:
    """A decoded key must name one dimension of the message's model, once.

    Both tampers used to decode cleanly: a key past ``dimension`` only
    failed later as an ``IndexError`` in the optimizer, and a key in both
    sign parts silently lost one of its two scattered updates."""

    @pytest.mark.parametrize("config", [
        {}, {"enable_minmax": False}, {"enable_quantization": False,
                                       "enable_minmax": False},
    ])
    def test_key_outside_the_dimension_is_rejected(self, config):
        keys, values, _ = make_gradient(nnz=200, dimension=1_000, seed=14)
        comp = SketchMLCompressor(SketchMLConfig.full(**config))
        message = comp.compress(keys, values, 1_000)
        message.dimension = 100
        wire = serialize_message(message)
        with pytest.raises(SerializationError, match=r"key \d+ .*dimension 100"):
            comp.decompress(deserialize_message(wire))

    def test_key_in_both_sign_parts_is_rejected(self):
        keys, values, dim = make_gradient(nnz=2_000, seed=15)
        comp = SketchMLCompressor()
        pos = comp.compress(keys, np.abs(values), dim).payload.parts[0]
        neg = comp.compress(keys, -np.abs(values), dim).payload.parts[0]
        message = comp.compress(keys, values, dim)
        message.payload.parts = [pos, neg]
        message.nnz = pos.nnz + neg.nnz  # parts must sum to the message nnz
        wire = serialize_message(message)
        # The sanitizer reports it first when on; this is the path without.
        with sanitize.sanitized(False), pytest.raises(
            SerializationError, match=rf"key {keys[0]} appears in two parts.*dimension {dim}"
        ):
            comp.decompress(deserialize_message(wire))


def _stable_argsort_merge(comp, message):
    """``decompress`` as first written: every part decoded, concatenated
    and ordered by one stable argsort over the keys."""
    decoded = [comp._decompress_part(part) for part in message.payload.parts]
    if not decoded:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    keys = np.concatenate([k for k, _ in decoded])
    values = np.concatenate([v for _, v in decoded])
    if message.payload.decay_scale != 1.0:
        values = values * message.payload.decay_scale
    order = np.argsort(keys, kind="stable")
    return keys[order], values[order]


MERGE_CONFIGS = {
    "full": SketchMLConfig.full(),
    "key+quan": SketchMLConfig.keys_and_quantization(),
    "key+quan-packed": SketchMLConfig.keys_and_quantization(pack_index_bits=True),
    "adam+key": SketchMLConfig.keys_only(),
}


@given(
    config=st.sampled_from(sorted(MERGE_CONFIGS)),
    nnz=st.integers(min_value=0, max_value=20_000),
    span=st.sampled_from([3, 42, 2**20, 2**32]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_merge_matches_the_stable_argsort(config, nnz, span, seed):
    """The merge (one run checked, two runs argsorted, many runs sorted
    as packed key/position words) equals one stable argsort bit for
    bit, keys up to 2**32 - 1 included."""
    rng = np.random.default_rng(seed)
    dimension = 2**32
    low = int(rng.integers(0, dimension - min(span * max(nnz, 1), dimension) + 1))
    keys = np.unique(rng.integers(low, min(low + span * max(nnz, 1), dimension), nnz))
    values = rng.laplace(scale=0.01, size=keys.size)
    values[values == 0.0] = 1e-4
    comp = SketchMLCompressor(MERGE_CONFIGS[config])
    message = comp.compress(keys, values, dimension)
    for msg in (message, deserialize_message(serialize_message(message))):
        got_keys, got_values = comp.decompress(msg)
        want_keys, want_values = _stable_argsort_merge(comp, msg)
        assert got_keys.dtype == want_keys.dtype == np.int64
        np.testing.assert_array_equal(got_keys, want_keys)
        np.testing.assert_array_equal(got_values, want_values)
    np.testing.assert_array_equal(got_keys, keys)


def _delta_blob(deltas):
    """A delta-binary key blob (§3.4) of these deltas, written by hand
    so that it can decode to keys no encoder accepts."""
    widths = [max(1, (d.bit_length() + 7) // 8) for d in deltas]
    flags = bytearray((len(deltas) + 3) // 4)
    for i, width in enumerate(widths):
        flags[i // 4] |= (width - 1) << (2 * (i % 4))
    payload = b"".join(d.to_bytes(w, "little") for d, w in zip(deltas, widths))
    return len(deltas).to_bytes(4, "little") + bytes(flags) + payload


def test_forged_key_past_two_to_the_32_still_fails_the_dimension_check():
    """A delta-binary key blob that decodes past ``2**32``, in a forged
    three-part message (three runs, so the packed merge is considered),
    falls back to the stable argsort and fails the dimension check.
    On the wire the reader's key-code check rejects the blob first, so
    ``decompress`` gets the forged message directly."""
    rng = np.random.default_rng(16)
    dimension = 2**32
    keys = np.unique(rng.integers(dimension - 10**6, dimension, 3_000))
    values = rng.laplace(scale=0.01, size=keys.size)
    comp = SketchMLCompressor(SketchMLConfig.keys_and_quantization())
    message = comp.compress(keys, values, dimension)
    pos, neg = message.payload.parts
    part_keys = pos.group_keys.concat.tolist()
    deltas = [part_keys[0]] + [b - a for a, b in zip(part_keys, part_keys[1:])]
    deltas[-1] = 2**32 - 1  # the part's last key lands past 2**32
    blob = _delta_blob(deltas)
    forged_keys = decode_keys(blob)
    assert forged_keys[-1] >= 2**32
    pos.group_keys = GroupKeys(
        forged_keys, pos.group_keys.counts, KEY_CODE_DELTA, [blob]
    )
    message.payload.parts.append(dataclasses.replace(neg))
    message.nnz += neg.nnz
    with pytest.raises(SerializationError, match=r"keys must lie in \[0, 2\*\*32"):
        deserialize_message(serialize_message(message))
    # The sanitizer reports the repeated part first when on.
    with sanitize.sanitized(False), pytest.raises(
        SerializationError, match=r"key \d+ is outside .*dimension 4294967296"
    ):
        comp.decompress(message)


@given(
    nnz=st.integers(min_value=1, max_value=500),
    seed=st.integers(min_value=0, max_value=200),
    q=st.sampled_from([16, 64, 256]),
)
@settings(max_examples=30, deadline=None)
def test_pipeline_invariants_property(nnz, seed, q):
    rng = np.random.default_rng(seed)
    dimension = max(nnz * 10, 100)
    keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
    values = rng.normal(scale=0.05, size=nnz)
    values[values == 0.0] = 0.01
    comp = SketchMLCompressor(SketchMLConfig.full(num_buckets=q, seed=seed))
    out_keys, out_values, msg = comp.roundtrip(keys, values, dimension)
    np.testing.assert_array_equal(out_keys, keys)  # lossless keys
    assert np.all(np.sign(out_values) == np.sign(values))  # no reversal
    assert msg.num_bytes > 0
    assert np.abs(out_values).max() <= np.abs(values).max() + 1e-12
