"""Sanitizer tests: enablement plumbing, per-invariant check functions,
and end-to-end injection — a tampered message must raise a structured
:class:`SanitizerError`, and the same tamper must decode silently with
the sanitizer off (proving the sanitizer is what catches it)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.core.compressor import SketchMLCompressor
from repro.core.config import SketchMLConfig
from repro.core.serialization import SerializationError
from repro.sanitize import (
    INVARIANT_ASCENDING_KEYS,
    INVARIANT_DECAY_SCALE,
    INVARIANT_INDEX_RANGE,
    INVARIANT_ONE_SIDED,
    INVARIANT_SIGN,
    INVARIANTS,
    SanitizerError,
)

DIMENSION = 100_000


def make_gradient(seed=0, nnz=2_000):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(DIMENSION, size=nnz, replace=False))
    values = rng.laplace(scale=0.01, size=nnz)
    values[values == 0.0] = 0.001
    return keys, values


@pytest.fixture(autouse=True)
def _reset_forced():
    """Leave the process-global force flag as we found it."""
    previous = sanitize.set_enabled(None)
    yield
    sanitize.set_enabled(previous)


class TestEnablement:
    def test_env_var_controls_default(self, monkeypatch):
        for off in ("", "0", "false", "off", "no", "FALSE", " Off "):
            monkeypatch.setenv("REPRO_SANITIZE", off)
            assert not sanitize.enabled()
        monkeypatch.delenv("REPRO_SANITIZE")
        assert not sanitize.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.enabled()

    def test_set_enabled_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitize.set_enabled(False)
        assert not sanitize.enabled()
        sanitize.set_enabled(None)
        assert sanitize.enabled()

    def test_context_manager_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        with sanitize.sanitized():
            assert sanitize.enabled()
            with sanitize.sanitized(False):
                assert not sanitize.enabled()
            assert sanitize.enabled()
        assert not sanitize.enabled()

    def test_config_flag_enables_per_compressor(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        with sanitize.sanitized(False):
            keys, values = make_gradient()
            comp = SketchMLCompressor(SketchMLConfig(sanitize=True))
            message = comp.compress(keys, values, DIMENSION)
            message.payload.decay_scale = 99.0
            with pytest.raises(SanitizerError):
                comp.decompress(message)


class TestCheckFunctions:
    def test_error_is_a_valueerror_and_structured(self):
        err = SanitizerError(INVARIANT_SIGN, "boom", part="sign=1",
                            group=2, offset=7)
        assert isinstance(err, ValueError)
        assert err.invariant == INVARIANT_SIGN
        assert err.group == 2 and err.offset == 7
        assert INVARIANT_SIGN in str(err) and "offset=7" in str(err)
        assert err.invariant in INVARIANTS

    def test_sign_preservation(self):
        sanitize.check_sign_preservation(1, np.array([0.0, 0.5, 2.0]))
        sanitize.check_sign_preservation(-1, np.array([-0.5, 0.0]))
        sanitize.check_sign_preservation(0, np.array([-1.0, 1.0]))
        with pytest.raises(SanitizerError) as info:
            sanitize.check_sign_preservation(1, np.array([0.1, -0.2]))
        assert info.value.invariant == INVARIANT_SIGN
        assert info.value.offset == 1
        with pytest.raises(SanitizerError):
            sanitize.check_sign_preservation(-1, np.array([0.3]))

    def test_bucket_index_range(self):
        sanitize.check_bucket_indexes(np.array([0, 5, 255]), 256)
        sanitize.check_bucket_indexes(
            np.array([32, 47]), 256, group=1, group_width=32
        )
        with pytest.raises(SanitizerError) as info:
            sanitize.check_bucket_indexes(np.array([0, 256]), 256)
        assert info.value.invariant == INVARIANT_INDEX_RANGE
        with pytest.raises(SanitizerError):
            sanitize.check_bucket_indexes(np.array([-1]), 256)
        # Inside [0, q) but outside the group band is still a violation.
        with pytest.raises(SanitizerError):
            sanitize.check_bucket_indexes(
                np.array([31]), 256, group=1, group_width=32
            )

    def test_one_sided(self):
        sanitize.check_one_sided(np.array([3, 7]), np.array([3, 5]))
        with pytest.raises(SanitizerError) as info:
            sanitize.check_one_sided(np.array([3, 7]), np.array([3, 8]))
        assert info.value.invariant == INVARIANT_ONE_SIDED
        assert info.value.offset == 1
        with pytest.raises(SanitizerError):
            sanitize.check_one_sided(np.array([3]), np.array([3, 4]))

    def test_ascending_keys(self):
        sanitize.check_ascending_keys(np.array([0, 1, 99]))
        sanitize.check_ascending_keys(np.array([], dtype=np.int64))
        for bad in ([5, 5], [5, 4], [-1, 3]):
            with pytest.raises(SanitizerError) as info:
                sanitize.check_ascending_keys(np.array(bad))
            assert info.value.invariant == INVARIANT_ASCENDING_KEYS

    def test_decay_scale(self):
        sanitize.check_decay_scale(1.0)
        sanitize.check_decay_scale(8.0)
        for bad in (0.5, 8.5, float("nan"), float("inf")):
            with pytest.raises(SanitizerError) as info:
                sanitize.check_decay_scale(bad)
            assert info.value.invariant == INVARIANT_DECAY_SCALE


class _OverEstimatingSketch:
    """Duck-typed sketch whose queries inflate the stored offsets."""

    group_width = 4
    index_range = 8

    def query_flat(self, keys_cat, counts, strict=False):
        # True offsets are 0..n-1; report them all as the band maximum.
        groups = np.repeat(np.arange(len(counts)), counts)
        return groups * self.group_width + self.group_width - 1


class TestEncoderSideVerify:
    def test_rejects_over_estimating_sketch(self):
        sorted_keys = np.array([5, 9, 12], dtype=np.int64)
        sorted_offsets = np.array([0, 1, 0], dtype=np.int64)
        counts = np.array([2, 1], dtype=np.int64)
        with pytest.raises(SanitizerError) as info:
            sanitize.verify_sketch_roundtrip(
                _OverEstimatingSketch(), sorted_keys, sorted_offsets, counts
            )
        assert info.value.invariant == INVARIANT_ONE_SIDED

    def test_accepts_real_sketch(self):
        keys, values = make_gradient(seed=3)
        with sanitize.sanitized():
            SketchMLCompressor().compress(keys, values, DIMENSION)


class TestCompressorInjection:
    """The acceptance-criteria injections: each tamper raises a
    SanitizerError naming the violated invariant, and decodes silently
    (wrong, but silently) with the sanitizer off — except a key in two
    parts, which the decode always refuses."""

    def _roundtrip_raises(self, message, invariant, config=None, unsanitized=None):
        comp = SketchMLCompressor(config)
        with sanitize.sanitized():
            with pytest.raises(SanitizerError) as info:
                comp.decompress(message)
        assert info.value.invariant == invariant
        with sanitize.sanitized(False):
            if unsanitized is None:
                comp.decompress(message)  # same tamper, no sanitizer: silent
            else:
                with pytest.raises(unsanitized):
                    comp.decompress(message)

    def test_valid_roundtrip_passes(self):
        keys, values = make_gradient(seed=1)
        with sanitize.sanitized():
            comp = SketchMLCompressor()
            out_keys, out_values, _ = comp.roundtrip(keys, values, DIMENSION)
        assert np.array_equal(out_keys, keys)
        assert np.all(np.sign(out_values) * np.sign(values) >= 0)

    def test_sign_flip_rejected(self):
        keys, values = make_gradient(seed=2)
        message = SketchMLCompressor().compress(keys, values, DIMENSION)
        part = next(p for p in message.payload.parts if p.sign > 0)
        part.buckets.sign = -1.0  # decoded positives now come out negative
        self._roundtrip_raises(message, INVARIANT_SIGN)

    def test_over_estimated_index_rejected(self):
        config = SketchMLConfig(enable_minmax=False, pack_index_bits=False)
        keys, values = make_gradient(seed=4)
        message = SketchMLCompressor(config).compress(keys, values, DIMENSION)
        part = message.payload.parts[0]
        assert part.indexes is not None
        part.indexes[0] = part.buckets.num_buckets + 1
        self._roundtrip_raises(message, INVARIANT_INDEX_RANGE, config)

    def test_sketch_table_tamper_rejected(self):
        keys, values = make_gradient(seed=5)
        message = SketchMLCompressor().compress(keys, values, DIMENSION)
        part = next(p for p in message.payload.parts if p.sketch is not None)
        inner = part.sketch._sketches[0]
        inner._table[:] = part.sketch.group_width  # >= per-group range
        self._roundtrip_raises(message, INVARIANT_INDEX_RANGE)

    def test_duplicate_keys_rejected(self):
        keys, values = make_gradient(seed=6)
        message = SketchMLCompressor().compress(keys, values, DIMENSION)
        # Duplicate a part: every one of its keys now appears twice in
        # the merged decode.  Two updates to one slot would silently lose
        # one, so even without the sanitizer the decode refuses it.
        message.payload.parts.append(message.payload.parts[0])
        self._roundtrip_raises(
            message, INVARIANT_ASCENDING_KEYS, unsanitized=SerializationError
        )

    def test_decay_scale_tamper_rejected(self):
        keys, values = make_gradient(seed=7)
        message = SketchMLCompressor().compress(keys, values, DIMENSION)
        message.payload.decay_scale = 99.0
        self._roundtrip_raises(message, INVARIANT_DECAY_SCALE)


class TestSanitizedProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), nnz=st.integers(32, 400))
    def test_valid_messages_always_accepted(self, seed, nnz):
        keys, values = make_gradient(seed=seed, nnz=nnz)
        with sanitize.sanitized():
            out_keys, out_values, _ = SketchMLCompressor().roundtrip(
                keys, values, DIMENSION
            )
        assert np.array_equal(out_keys, keys)
        assert np.all(np.sign(out_values) * np.sign(values) >= 0)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        corruption=st.sampled_from(["sign-flip", "dup-part", "decay"]),
    )
    def test_corrupted_messages_always_rejected(self, seed, corruption):
        keys, values = make_gradient(seed=seed, nnz=256)
        comp = SketchMLCompressor()
        message = comp.compress(keys, values, DIMENSION)
        payload = message.payload
        if corruption == "sign-flip":
            payload.parts[0].buckets.sign = -payload.parts[0].buckets.sign
        elif corruption == "dup-part":
            payload.parts.append(payload.parts[0])
        else:
            payload.decay_scale = -3.0
        with sanitize.sanitized():
            with pytest.raises(SanitizerError):
                comp.decompress(message)
