"""Tests for the SketchML wire format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import IdentityCompressor
from repro.core import (
    SerializationError,
    SketchMLCompressor,
    SketchMLConfig,
    deserialize_message,
    serialize_message,
)
from tests.payload_v1_reference import serialize_v1


def make_gradient(nnz=3_000, dimension=100_000, seed=0):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
    values = rng.laplace(scale=0.01, size=nnz)
    values[values == 0.0] = 1e-6
    return keys, values, dimension


# Case ids are the ablation label plus a fixed suffix. The suffixes once
# came from id(config) % 97, which varies run to run; they are frozen here
# so each case keeps a stable name.
CONFIGS = [
    pytest.param(SketchMLConfig.adam(), id="Adam59"),
    pytest.param(SketchMLConfig.keys_only(), id="Adam+Key89"),
    pytest.param(SketchMLConfig.keys_and_quantization(), id="Adam+Key+Quan0"),
    pytest.param(
        SketchMLConfig.keys_and_quantization(pack_index_bits=True), id="Adam+Key+Quan6"
    ),
    pytest.param(SketchMLConfig.full(), id="Adam+Key+Quan+MinMax26"),
    pytest.param(
        SketchMLConfig.full(num_buckets=256, num_groups=4, minmax_rows=3),
        id="Adam+Key+Quan+MinMax58",
    ),
    pytest.param(SketchMLConfig.full(hash_family="tabulation"), id="Adam+Key+Quan+MinMax65"),
]


@pytest.mark.parametrize("config", CONFIGS)
class TestWireRoundtrip:
    def test_decodes_identically(self, config):
        keys, values, dim = make_gradient(seed=1)
        comp = SketchMLCompressor(config)
        message = comp.compress(keys, values, dim)
        expected_keys, expected_values = comp.decompress(message)

        wire = serialize_message(message)
        rebuilt = deserialize_message(wire)
        out_keys, out_values = comp.decompress(rebuilt)
        np.testing.assert_array_equal(out_keys, expected_keys)
        np.testing.assert_allclose(out_values, expected_values)

    def test_metadata_preserved(self, config):
        keys, values, dim = make_gradient(seed=2)
        message = SketchMLCompressor(config).compress(keys, values, dim)
        rebuilt = deserialize_message(serialize_message(message))
        assert rebuilt.dimension == message.dimension
        assert rebuilt.nnz == message.nnz

    def test_wire_size_close_to_accounting(self, config):
        """num_bytes is the wire length, with no tolerance; the retired
        v1 layout is never smaller."""
        keys, values, dim = make_gradient(nnz=8_000, seed=3)
        message = SketchMLCompressor(config).compress(keys, values, dim)
        assert len(serialize_message(message)) == message.num_bytes
        assert len(serialize_v1(message)) >= message.num_bytes


class TestWireErrors:
    def _wire(self):
        keys, values, dim = make_gradient(seed=4)
        message = SketchMLCompressor().compress(keys, values, dim)
        return serialize_message(message)

    def test_rejects_foreign_message(self):
        keys, values, dim = make_gradient(nnz=10, seed=5)
        message = IdentityCompressor().compress(keys, values, dim)
        with pytest.raises(TypeError):
            serialize_message(message)

    def test_bad_magic(self):
        wire = bytearray(self._wire())
        wire[0] = 0
        with pytest.raises(SerializationError, match="magic"):
            deserialize_message(bytes(wire))

    def test_bad_version(self):
        wire = bytearray(self._wire())
        wire[4] = 99
        with pytest.raises(SerializationError, match="version"):
            deserialize_message(bytes(wire))

    def test_truncation(self):
        # Half the message cuts into the sketch cells, whose exact coded
        # length the reader checks against what is left before reading.
        wire = self._wire()
        with pytest.raises(
            SerializationError, match="truncated|larger than the remaining"
        ):
            deserialize_message(wire[: len(wire) // 2])

    def test_trailing_bytes(self):
        with pytest.raises(SerializationError, match="trailing"):
            deserialize_message(self._wire() + b"\x00")

    def test_empty_gradient_roundtrip(self):
        comp = SketchMLCompressor()
        empty = np.asarray([], dtype=np.int64)
        message = comp.compress(empty, empty.astype(float), 100)
        rebuilt = deserialize_message(serialize_message(message))
        out_keys, out_values = comp.decompress(rebuilt)
        assert out_keys.size == 0
        assert out_values.size == 0


@given(
    nnz=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=25, deadline=None)
def test_wire_roundtrip_property(nnz, seed):
    rng = np.random.default_rng(seed)
    dimension = max(nnz * 8, 64)
    keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
    values = rng.normal(scale=0.05, size=nnz)
    values[values == 0.0] = 0.01
    comp = SketchMLCompressor(SketchMLConfig.full(seed=seed))
    message = comp.compress(keys, values, dimension)
    expected = comp.decompress(message)
    rebuilt = deserialize_message(serialize_message(message))
    out = comp.decompress(rebuilt)
    np.testing.assert_array_equal(out[0], expected[0])
    np.testing.assert_allclose(out[1], expected[1])
