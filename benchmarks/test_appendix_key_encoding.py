"""§3.4 / §A.3: delta-binary keys vs the alternative lossless codecs.

Quantifies the paper's codec claims: ~1.27 bytes/key at realistic
sparsity (3.2× below raw 4-byte ints), RLE/Huffman useless for
scattered keys, bitmap only competitive when dense.  Then measures the
two codes the wire ships — delta-binary (payload v1) and block-adaptive
Rice (payload v2 sketch parts) — in bits per key against the
order-statistics bound ``log2(D/n) + 1.44`` for ``n`` uniform keys out
of ``D`` (Dickens et al., *Key Compression Limits for k-Minimum Value
Sketches*).
"""

import math

import numpy as np

from conftest import run_once
from repro.bench import format_table
from repro.compression.lossless import (
    BlockRiceKeyCodec,
    DeltaBinaryKeyCodec,
    all_key_codecs,
)

DIMENSION = 2**20
#: The bound table: 4.8k keys (the benchmark's ``small_mp`` message
#: size) at these D/n.
BOUND_NNZ = 4_800
BOUND_RATIOS = (3, 10, 42, 330)


def measure_codecs():
    rng = np.random.default_rng(0)
    results = {}
    for density in (0.1, 0.01, 0.001):
        nnz = int(DIMENSION * density)
        keys = np.sort(rng.choice(DIMENSION, size=nnz, replace=False))
        for codec in all_key_codecs(DIMENSION):
            results[(density, codec.name)] = codec.bytes_per_key(keys)
    return results


def _bound_keys(rng, shape, dimension):
    if shape == "uniform":
        return np.sort(rng.choice(dimension, size=BOUND_NNZ, replace=False))
    # Zipf(1.1) feature popularity: distinct ids drawn by rank weight,
    # so the head of the key space is dense and the tail sparse.
    weights = 1.0 / np.arange(1, dimension + 1) ** 1.1
    return np.sort(rng.choice(
        dimension, size=BOUND_NNZ, replace=False, p=weights / weights.sum()
    ))


def measure_bits_per_key():
    rng = np.random.default_rng(1)
    codecs = (DeltaBinaryKeyCodec(), BlockRiceKeyCodec())
    results = {}
    for shape in ("uniform", "zipf"):
        for ratio in BOUND_RATIOS:
            keys = _bound_keys(rng, shape, ratio * BOUND_NNZ)
            for codec in codecs:
                assert np.array_equal(codec.decode(codec.encode(keys)), keys)
                results[(shape, ratio, codec.name)] = (
                    8 * codec.bytes_per_key(keys)
                )
    return results


def test_appendix_key_codec_comparison(benchmark, archive):
    results = run_once(benchmark, measure_codecs)
    bits = measure_bits_per_key()

    codec_names = sorted({name for _, name in results})
    densities = sorted({d for d, _ in results}, reverse=True)
    rows = [
        [name] + [round(results[(d, name)], 3) for d in densities]
        for name in codec_names
    ]
    bound_rows = [
        [shape, ratio, round(math.log2(ratio) + 1.44, 2)]
        + [round(bits[(shape, ratio, name)], 2)
           for name in ("delta_binary", "block_rice")]
        for shape in ("uniform", "zipf")
        for ratio in BOUND_RATIOS
    ]
    archive(
        "appendix_key_encoding",
        format_table(
            ["codec"] + [f"density={d}" for d in densities],
            rows,
            title="§3.4/§A.3: bytes per key by codec and gradient density",
        )
        + "\n\n"
        + format_table(
            ["keys", "D/n", "bound", "delta_binary", "block_rice"],
            bound_rows,
            title=(
                f"Bits per key for {BOUND_NNZ} keys against the "
                "order-statistics bound log2(D/n) + 1.44"
            ),
        ),
    )

    for ratio in BOUND_RATIOS:
        # Rice beats delta-binary on uniform keys at every spacing, and
        # lands within a bit of the bound (the k byte per 64 keys and
        # the integer parameter cost the rest).
        rice = bits[("uniform", ratio, "block_rice")]
        assert rice < bits[("uniform", ratio, "delta_binary")]
        assert rice < math.log2(ratio) + 1.44 + 1.0

    for density in densities:
        delta = results[(density, "delta_binary")]
        # Paper §4.2: ~1.25-1.27 bytes/key at the evaluated sparsities
        # (≥1%); extreme sparsity needs wider deltas but stays well
        # under raw int32.
        assert delta < (1.6 if density >= 0.01 else 2.5)
        assert results[(density, "raw_int32")] / delta > 1.9
        # RLE cannot beat delta-binary on scattered keys.
        assert results[(density, "rle_bitmap")] > delta
        # Huffman over delta *bytes* (the strongest Huffman variant we
        # could give the paper's argument) is at best marginally
        # smaller at high density and loses as keys spread out — and it
        # is orders of magnitude slower to code (see the throughput
        # bench below), which is the practical reason §3.4 dismisses it.
        assert results[(density, "huffman_delta")] > 0.8 * delta
    assert results[(0.001, "huffman_delta")] > results[(0.001, "delta_binary")]
    # Bitmap: cost per key explodes as density falls (fixed D/8 bytes).
    assert results[(0.001, "bitmap")] > 50 * results[(0.1, "bitmap")]


def test_delta_key_throughput(benchmark):
    """Micro-benchmark: encode+decode throughput of the key codec."""
    from repro.core import decode_keys, encode_keys

    rng = np.random.default_rng(1)
    keys = np.sort(rng.choice(DIMENSION, size=100_000, replace=False))

    def roundtrip():
        return decode_keys(encode_keys(keys))

    out = benchmark(roundtrip)
    np.testing.assert_array_equal(out, keys)


def test_delta_binary_much_faster_than_huffman(benchmark):
    """The practical §3.4 argument: byte-flag coding is vectorisable,
    Huffman is bit-serial — delta-binary codes the same keys orders of
    magnitude faster."""
    import time

    from repro.compression.lossless import (
        DeltaBinaryKeyCodec,
        HuffmanDeltaKeyCodec,
    )

    rng = np.random.default_rng(2)
    keys = np.sort(rng.choice(DIMENSION, size=20_000, replace=False))

    def timed(codec):
        t0 = time.perf_counter()
        codec.decode(codec.encode(keys))
        return time.perf_counter() - t0

    delta_time = benchmark.pedantic(
        lambda: timed(DeltaBinaryKeyCodec()), rounds=1, iterations=1
    )
    huffman_time = timed(HuffmanDeltaKeyCodec())
    assert huffman_time > 20 * delta_time
