"""Micro-benchmarks: encode/decode throughput of every compressor.

Not a paper figure — supporting data for Fig. 8(c)'s CPU-overhead story
and a regression guard on codec performance.
"""

import numpy as np
import pytest

from repro.compression import (
    Float16Compressor,
    IdentityCompressor,
    OneBitCompressor,
    TopKCompressor,
    ZipMLCompressor,
)
from repro.core import SketchMLCompressor, SketchMLConfig

DIMENSION = 1_000_000
NNZ = 50_000


def make_gradient(seed=0):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(DIMENSION, size=NNZ, replace=False))
    values = rng.laplace(scale=0.01, size=NNZ)
    values[values == 0.0] = 1e-6
    return keys, values


COMPRESSORS = {
    "identity": IdentityCompressor,
    "zipml16": lambda: ZipMLCompressor(bits=16),
    "zipml8": lambda: ZipMLCompressor(bits=8),
    "onebit": lambda: OneBitCompressor(error_feedback=False),
    "topk": lambda: TopKCompressor(ratio=0.1, error_feedback=False),
    "float16": Float16Compressor,
    "sketchml": lambda: SketchMLCompressor(SketchMLConfig.full()),
    "sketchml_q256_r16": lambda: SketchMLCompressor(
        SketchMLConfig.full(num_buckets=256, num_groups=16)
    ),
}


@pytest.mark.parametrize("name", sorted(COMPRESSORS))
def test_compress_throughput(benchmark, name):
    keys, values = make_gradient()
    comp = COMPRESSORS[name]()

    def run():
        return comp.compress(keys, values, DIMENSION)

    message = benchmark(run)
    assert message.num_bytes > 0


@pytest.mark.parametrize("name", sorted(COMPRESSORS))
def test_decompress_throughput(benchmark, name):
    keys, values = make_gradient(seed=1)
    comp = COMPRESSORS[name]()
    message = comp.compress(keys, values, DIMENSION)

    def run():
        return comp.decompress(message)

    out_keys, _ = benchmark(run)
    assert out_keys.size > 0


def test_wire_serialization_throughput(benchmark):
    from repro.core import (
        SketchMLCompressor,
        deserialize_message,
        serialize_message,
    )

    keys, values = make_gradient(seed=4)
    message = SketchMLCompressor().compress(keys, values, DIMENSION)

    def run():
        return deserialize_message(serialize_message(message))

    rebuilt = benchmark(run)
    assert rebuilt.nnz == message.nnz


def test_minmax_sketch_insert_query_throughput(benchmark):
    from repro.core import MinMaxSketch

    rng = np.random.default_rng(3)
    keys = np.sort(rng.choice(10**7, size=100_000, replace=False))
    indexes = rng.integers(0, 128, size=100_000)

    def run():
        sk = MinMaxSketch(num_rows=2, num_bins=20_000, index_range=128, seed=0)
        sk.insert_many(keys, indexes)
        return sk.query_many(keys)

    decoded = benchmark(run)
    assert np.all(decoded <= indexes)
