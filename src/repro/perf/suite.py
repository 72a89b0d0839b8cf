"""The codec benchmark suite: kernels x gradient sizes -> BENCH_codec.json.

Each kernel closes over pre-built operands so the timed region covers
only the work the compressor's hot path actually does per message.
Operand bytes (for the MB/s column) count the raw int64 keys and/or
float64 values the kernel consumes, i.e. the uncompressed traffic the
codec stage is processing.

The ``delta_*`` rows time the paper's delta-binary key code (§3.4);
the ``keys_*_v2`` rows time what payload v2 does with a real message's
grouped sketch keys instead — choose a code and Rice-code them on
encode, decode all of the message's parts in one pass with every
canonical check on decode.  The
``adam_step`` rows time the optimizer apply that follows a decode on
every replica.  The ``batch_gradient`` rows time the step before any
codec work: a worker's logistic-regression gradient over a kdd12-like
CSR batch of ``nnz`` entries (one gather, ``sum_by_key``).
"""

from __future__ import annotations

import dataclasses
import json
import platform
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.compressor import SketchMLCompressor
from ..core.config import SketchMLConfig
from ..core.delta_encoding import (
    decode_key_groups_flat,
    encode_key_groups_flat,
    encode_keys,
)
from ..core.minmax_sketch import GroupedMinMaxSketch
from ..core.quantizer import QuantileBucketQuantizer
from ..core.rice import decode_key_parts, encode_key_groups_v2
from ..data.synthetic import KDD12_LIKE, generate_dataset
from ..models import LogisticRegression
from ..optim import Adam
from .harness import BenchResult, time_kernel

__all__ = [
    "BENCH_FILENAME",
    "FULL_SIZES",
    "QUICK_SIZES",
    "run_suite",
    "write_results",
]

BENCH_FILENAME = "BENCH_codec.json"

#: gradient sizes (nnz) for the full suite
FULL_SIZES = (5_000, 50_000, 200_000)
#: CI smoke sizes: fast, but large enough that per-element work
#: outweighs the per-call numpy overhead
QUICK_SIZES = (5_000, 50_000)

_KEY_BYTES = 8  # int64 wire keys
_VALUE_BYTES = 8  # float64 gradient values


def _synthetic_gradient(nnz: int, seed: int = 0):
    """The suite's canonical gradient: Laplace values on sorted keys."""
    rng = np.random.default_rng(seed)
    dimension = max(10 * nnz, 64)
    keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
    values = rng.laplace(scale=0.01, size=nnz)
    values[values == 0.0] = 1e-4
    return keys, values, dimension


def _bench_quantizer_fit(
    nnz: int, cfg: SketchMLConfig, warmup: int, repeats: int
) -> BenchResult:
    _, values, _ = _synthetic_gradient(nnz)
    pos_sel = np.flatnonzero(values >= 0)
    neg_sel = np.flatnonzero(values < 0)

    def kernel():
        quantizer = QuantileBucketQuantizer(num_buckets=cfg.num_buckets)
        return quantizer.fit_encode(values, pos_sel=pos_sel, neg_sel=neg_sel)

    return time_kernel(
        f"quantizer_fit/{nnz}",
        kernel,
        elements=nnz,
        bytes_processed=nnz * _VALUE_BYTES,
        warmup=warmup,
        repeats=repeats,
    )


def _minmax_operands(nnz: int, cfg: SketchMLConfig):
    keys, values, _ = _synthetic_gradient(nnz)
    # Bucket indexes from a real fit so insert sees realistic skew.
    quantizer = QuantileBucketQuantizer(num_buckets=cfg.num_buckets)
    pos_sel = np.flatnonzero(values >= 0)
    neg_sel = np.flatnonzero(values < 0)
    pos_enc, neg_enc = quantizer.fit_encode(
        values, pos_sel=pos_sel, neg_sel=neg_sel
    )
    # Benchmark whichever sign part is larger (tiny grids can come out
    # single-signed).
    if pos_sel.size >= neg_sel.size:
        sign_keys, sign_enc, buckets = keys.take(pos_sel), pos_enc, quantizer.positive
    else:
        sign_keys, sign_enc, buckets = keys.take(neg_sel), neg_enc, quantizer.negative

    def make_sketch() -> GroupedMinMaxSketch:
        return GroupedMinMaxSketch(
            num_groups=cfg.num_groups,
            index_range=buckets.num_buckets,
            num_rows=cfg.minmax_rows,
            total_bins=cfg.minmax_total_bins(sign_keys.size),
            seed=cfg.seed,
            hash_family=cfg.hash_family,
        )
    return sign_keys, sign_enc, make_sketch


def _bench_minmax_insert(
    nnz: int, cfg: SketchMLConfig, warmup: int, repeats: int
) -> BenchResult:
    sign_keys, sign_enc, make_sketch = _minmax_operands(nnz, cfg)

    def kernel():
        sketch = make_sketch()
        flat = sketch.partition_flat(sign_keys, sign_enc)
        sketch.insert_flat(*flat)
        return sketch

    return time_kernel(
        f"minmax_insert/{nnz}",
        kernel,
        elements=sign_keys.size,
        bytes_processed=sign_keys.size * (_KEY_BYTES + _VALUE_BYTES),
        warmup=warmup,
        repeats=repeats,
    )


def _decode_operands(nnz: int, cfg: SketchMLConfig):
    """The sketch parts of one real message: what ``decompress`` walks.

    With the default config that is 2 signs x 8 groups — per part, eight
    key blobs and eight group sketches.
    """
    keys, values, dimension = _synthetic_gradient(nnz)
    message = SketchMLCompressor(cfg).compress(keys, values, dimension)
    return [part for part in message.payload.parts if part.sketch is not None]


def _bench_minmax_query(
    nnz: int, cfg: SketchMLConfig, warmup: int, repeats: int
) -> BenchResult:
    operands = [
        (part.sketch, part.group_keys.concat, part.group_keys.counts)
        for part in _decode_operands(nnz, cfg)
    ]

    def kernel():
        return [
            sketch.query_flat(keys_cat, counts)
            for sketch, keys_cat, counts in operands
        ]

    return time_kernel(
        f"minmax_query/{nnz}",
        kernel,
        elements=nnz,
        bytes_processed=nnz * _KEY_BYTES,
        warmup=warmup,
        repeats=repeats,
    )


def _bench_delta_encode(
    nnz: int, cfg: SketchMLConfig, warmup: int, repeats: int
) -> BenchResult:
    keys, _, _ = _synthetic_gradient(nnz)
    return time_kernel(
        f"delta_encode/{nnz}",
        lambda: encode_keys(keys),
        elements=nnz,
        bytes_processed=nnz * _KEY_BYTES,
        warmup=warmup,
        repeats=repeats,
    )


def _bench_delta_decode(
    nnz: int, cfg: SketchMLConfig, warmup: int, repeats: int
) -> BenchResult:
    blob_lists = [
        encode_key_groups_flat(part.group_keys.concat, part.group_keys.counts)
        for part in _decode_operands(nnz, cfg)
    ]
    return time_kernel(
        f"delta_decode/{nnz}",
        lambda: [decode_key_groups_flat(blobs) for blobs in blob_lists],
        elements=nnz,
        bytes_processed=nnz * _KEY_BYTES,
        warmup=warmup,
        repeats=repeats,
    )


def _bench_keys_encode_v2(
    nnz: int, cfg: SketchMLConfig, warmup: int, repeats: int
) -> BenchResult:
    groups = [part.group_keys for part in _decode_operands(nnz, cfg)]
    return time_kernel(
        f"keys_encode_v2/{nnz}",
        lambda: [encode_key_groups_v2(g.concat, g.counts) for g in groups],
        elements=nnz,
        bytes_processed=nnz * _KEY_BYTES,
        warmup=warmup,
        repeats=repeats,
    )


def _bench_keys_decode_v2(
    nnz: int, cfg: SketchMLConfig, warmup: int, repeats: int
) -> BenchResult:
    groups = [part.group_keys for part in _decode_operands(nnz, cfg)]
    return time_kernel(
        f"keys_decode_v2/{nnz}",
        lambda: decode_key_parts([(g.code, g.blobs) for g in groups]),
        elements=nnz,
        bytes_processed=nnz * _KEY_BYTES,
        warmup=warmup,
        repeats=repeats,
    )


def _bench_e2e_compress(
    nnz: int, cfg: SketchMLConfig, warmup: int, repeats: int
) -> BenchResult:
    keys, values, dimension = _synthetic_gradient(nnz)
    compressor = SketchMLCompressor(cfg)
    return time_kernel(
        f"e2e_compress/{nnz}",
        lambda: compressor.compress(keys, values, dimension),
        elements=nnz,
        bytes_processed=nnz * (_KEY_BYTES + _VALUE_BYTES),
        warmup=warmup,
        repeats=repeats,
    )


def _bench_e2e_decompress(
    nnz: int, cfg: SketchMLConfig, warmup: int, repeats: int
) -> BenchResult:
    keys, values, dimension = _synthetic_gradient(nnz)
    compressor = SketchMLCompressor(cfg)
    message = compressor.compress(keys, values, dimension)
    return time_kernel(
        f"e2e_decompress/{nnz}",
        lambda: compressor.decompress(message),
        elements=nnz,
        bytes_processed=nnz * (_KEY_BYTES + _VALUE_BYTES),
        warmup=warmup,
        repeats=repeats,
    )


def _bench_adam_step(
    nnz: int, cfg: SketchMLConfig, warmup: int, repeats: int
) -> BenchResult:
    """What a replica does with a decoded UPDATE: one ``Adam.step`` over
    its keys and values, the optimizer state warmed by earlier steps."""
    keys, values, dimension = _synthetic_gradient(nnz)
    compressor = SketchMLCompressor(cfg)
    keys, values = compressor.decompress(compressor.compress(keys, values, dimension))
    adam = Adam(learning_rate=0.01)
    theta = np.zeros(dimension)
    for _ in range(10):
        adam.step(theta, keys, values)
    return time_kernel(
        f"adam_step/{nnz}",
        lambda: adam.step(theta, keys, values),
        elements=nnz,
        bytes_processed=nnz * (_KEY_BYTES + _VALUE_BYTES),
        warmup=warmup,
        repeats=repeats,
    )


def _bench_batch_gradient(
    nnz: int, cfg: SketchMLConfig, warmup: int, repeats: int
) -> BenchResult:
    """A worker's compute step: ``batch_gradient`` over a whole kdd12-like
    batch whose CSR slice holds about ``nnz`` entries."""
    rows = max(1, round(nnz / KDD12_LIKE.avg_nnz_per_row))
    dataset = generate_dataset(
        dataclasses.replace(KDD12_LIKE, num_rows=rows), seed=cfg.seed
    )
    batch = np.arange(dataset.num_rows)
    model = LogisticRegression(dataset.num_features)
    theta = np.random.default_rng(cfg.seed).normal(
        scale=0.01, size=dataset.num_features
    )
    return time_kernel(
        f"batch_gradient/{nnz}",
        lambda: model.batch_gradient(dataset, batch, theta),
        elements=dataset.nnz,
        bytes_processed=dataset.nnz * (_KEY_BYTES + _VALUE_BYTES),
        warmup=warmup,
        repeats=repeats,
    )


_KERNELS = (
    _bench_quantizer_fit,
    _bench_minmax_insert,
    _bench_minmax_query,
    _bench_delta_encode,
    _bench_delta_decode,
    _bench_keys_encode_v2,
    _bench_keys_decode_v2,
    _bench_e2e_compress,
    _bench_e2e_decompress,
    _bench_adam_step,
    _bench_batch_gradient,
)


def run_suite(
    sizes: Optional[Sequence[int]] = None,
    *,
    quick: bool = False,
    warmup: Optional[int] = None,
    repeats: Optional[int] = None,
    config: Optional[SketchMLConfig] = None,
) -> List[BenchResult]:
    """Run every kernel at every size; returns the timed results.

    ``quick`` trims both the size grid and the repeat counts so the
    whole suite finishes in a couple of seconds — that mode exists for
    CI smoke coverage, not for quotable numbers.  It still takes the
    median of five, so CI's same-run ratio checks (which combine up to
    four medians) do not trip on one slow sample.
    """
    if sizes is None:
        sizes = QUICK_SIZES if quick else FULL_SIZES
    if warmup is None:
        warmup = 1 if quick else 3
    if repeats is None:
        repeats = 5 if quick else 7
    cfg = config if config is not None else SketchMLConfig()
    results: List[BenchResult] = []
    for nnz in sizes:
        for bench in _KERNELS:
            results.append(bench(int(nnz), cfg, warmup, repeats))
    return results


def results_to_json(
    results: Sequence[BenchResult],
    *,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """``extra`` adds top-level sections (e.g. the wire-bench summary)
    next to ``kernels``; it may not override the fixed keys."""
    payload: Dict[str, object] = {
        "schema": "repro-bench-codec/1",
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "kernels": {r.name: r.to_json() for r in results},
    }
    if extra:
        overlap = payload.keys() & extra.keys()
        if overlap:
            raise ValueError(f"extra sections clash with fixed keys: {sorted(overlap)}")
        payload.update(extra)
    return payload


def write_results(
    results: Sequence[BenchResult],
    path: str,
    *,
    extra: Optional[Dict[str, object]] = None,
) -> None:
    with open(path, "w") as fh:
        json.dump(
            results_to_json(results, extra=extra), fh, indent=2, sort_keys=True
        )
        fh.write("\n")
