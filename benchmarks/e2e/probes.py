"""Replay probes: each codec / wire layer's public functions, timed on
operands taken from the workload itself.

The traced ``train()`` shows where a round's time goes down to
``RuntimeCluster`` / ``Driver`` granularity; the layers below that are
not reachable from the driver process on the real backends (the worker
encodes in another process), so after the run each is replayed here on
the same kind of operand it saw: gradients of worker 0's first batches,
the first aggregated gradients the driver merged, and a 64-nnz slice
for the per-message fixed cost.  A layer the workload's method does not
use reports 0 (``entropy.saved_share``: 1) — the work-done count of a
layer that did no work.

Every probe also checks its output; failures come back as strings.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from metrics import median
from workloads import LEARNING_RATE, Setup, batch_size

__all__ = ["run_probes"]

OPERANDS = 8
REPEATS = 3
SMALL_NNZ = 64
ECHO_ROUND_TRIPS = 200

Metric = Tuple[float, int]


def _timed(fn: Callable[[], object], repeats: int) -> List[float]:
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def _med(samples: List[float], scale: float = 1.0) -> Metric:
    return median(samples) * scale, len(samples)


def _worker_gradients(setup: Setup) -> List[Tuple[np.ndarray, np.ndarray]]:
    from repro.data.splits import partition_rows

    rows = partition_rows(
        setup.train.num_rows, setup.workload.workers, seed=setup.seed
    )[0]
    shard = setup.train.subset(rows)
    size = batch_size(setup.workload, shard.num_rows)
    rng = np.random.default_rng(setup.seed)
    theta = setup.trainer.theta
    grads = []
    for batch in itertools.islice(shard.iter_batches(size, rng), OPERANDS):
        keys, values, _ = setup.model.batch_gradient(shard, batch, theta)
        grads.append((keys, values))
    return grads


def _aggregated_gradients(setup: Setup, kept) -> List[Tuple[np.ndarray, np.ndarray]]:
    from repro.distributed.driver import aggregate_sparse_gradients

    comp = setup.compressor_factory()
    return [
        aggregate_sparse_gradients(
            [comp.decompress(m) for m in messages], weights
        )
        for messages, weights in kept
    ]


def _ascending(keys: np.ndarray) -> bool:
    return bool(keys.size < 2 or np.all(np.diff(keys) > 0))


def run_probes(
    setup: Setup, kept_aggregates, message_bytes: int
) -> Tuple[Dict[str, Metric], List[str]]:
    """All replay probes for one workload → ``{metric: (value, n)}``."""
    from repro.core.delta_encoding import decode_keys, encode_keys
    from repro.core.serialization import (
        PAYLOAD_VERSION_V2,
        deserialize_message,
        serialize_message,
    )

    failures: List[str] = []
    out: Dict[str, Metric] = {}
    dim = setup.model.num_parameters
    entropy = setup.workload.entropy_coding
    worker_grads = _worker_gradients(setup)
    operands = worker_grads + _aggregated_gradients(setup, kept_aggregates)
    comp = setup.compressor_factory()
    cfg = comp.config
    comp.decompress(comp.compress(*operands[0], dim))  # warm caches

    # -- compressor: whole encode / decode, per element -----------------
    compress_ns, decompress_ns = [], []
    for keys, values in operands:
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            message = comp.compress(keys, values, dim)
            t1 = time.perf_counter()
            comp.decompress(message)
            t2 = time.perf_counter()
            compress_ns.append((t1 - t0) * 1e9 / keys.size)
            decompress_ns.append((t2 - t1) * 1e9 / keys.size)
    out["compressor.compress_ns_per_elem"] = _med(compress_ns)
    out["compressor.decompress_ns_per_elem"] = _med(decompress_ns)
    small_keys = worker_grads[0][0][:SMALL_NNZ]
    small_values = worker_grads[0][1][:SMALL_NNZ]
    out["compressor.fixed_cost_us"] = _med(_timed(
        lambda: comp.decompress(comp.compress(small_keys, small_values, dim)),
        100,
    ), 1e6)

    # -- codec fidelity: lossless ascending keys, no sign flips ----------
    messages = []
    under = flips = total = 0
    rel_err: List[np.ndarray] = []
    for keys, values in worker_grads:
        message = comp.compress(keys, values, dim)
        messages.append(message)
        wire = serialize_message(
            message, version=PAYLOAD_VERSION_V2, entropy=entropy
        )
        out_keys, out_values = comp.decompress(deserialize_message(wire))
        mem_keys, mem_values = comp.decompress(message)
        if not (np.array_equal(out_keys, mem_keys)
                and np.array_equal(out_values, mem_values)):
            failures.append("wire round trip changed the decoded gradient")
        if not (np.array_equal(out_keys, keys) and _ascending(out_keys)):
            failures.append("decoded keys are not the ascending input keys")
            continue
        flips += int(np.count_nonzero(out_values * values < 0))
        under += int(np.count_nonzero(np.abs(out_values) < np.abs(values)))
        total += keys.size
        rel_err.append(np.abs(out_values - values) / np.abs(values))
    if flips:
        failures.append(f"{flips} decoded values changed sign")
    out["codec.sign_flips"] = (float(flips), total)
    out["codec.underestimate_share"] = (under / max(total, 1), total)
    out["codec.value_rel_err_p50"] = (
        float(np.median(np.concatenate(rel_err))) if rel_err else 0.0, total
    )

    # -- quantizer / MinMaxSketch ----------------------------------------
    out.update(_quantizer_and_sketch(cfg, operands, failures))

    # -- delta-binary keys -------------------------------------------------
    enc_ns, dec_ns = [], []
    key_bytes = key_count = 0
    for keys, _ in operands:
        blob = encode_keys(keys)
        if not np.array_equal(decode_keys(blob), keys):
            failures.append("delta key round trip is not lossless")
        key_bytes += len(blob)
        key_count += keys.size
        enc_ns += [t * 1e9 / keys.size
                   for t in _timed(lambda: encode_keys(keys), REPEATS)]
        dec_ns += [t * 1e9 / keys.size
                   for t in _timed(lambda: decode_keys(blob), REPEATS)]
    out["delta.encode_ns_per_key"] = _med(enc_ns)
    out["delta.decode_ns_per_key"] = _med(dec_ns)
    out["delta.bytes_per_key"] = (key_bytes / key_count, key_count)

    # -- serialization (as the workers ship it: payload v2) ---------------
    ser_us, de_us = [], []
    wires = []
    for message in messages:
        wire = serialize_message(
            message, version=PAYLOAD_VERSION_V2, entropy=entropy
        )
        wires.append(wire)
        ser_us += [t * 1e6 for t in _timed(lambda: serialize_message(
            message, version=PAYLOAD_VERSION_V2, entropy=entropy), REPEATS)]
        de_us += [t * 1e6 for t in _timed(
            lambda: deserialize_message(wire), REPEATS)]
    out["serialization.serialize_us"] = _med(ser_us)
    out["serialization.deserialize_us"] = _med(de_us)

    # -- entropy coding of the bucket-index stream -----------------------
    out.update(_entropy(messages, wires, entropy, failures))

    # -- framing -----------------------------------------------------------
    wire = sorted(wires, key=len)[len(wires) // 2]
    out.update(_framing(wire, failures))

    # -- transport round trip on the workload's backend --------------------
    out.update(_echo(setup, message_bytes, failures))
    return out, failures


def _quantizer_and_sketch(cfg, operands, failures) -> Dict[str, Metric]:
    from repro.core.minmax_sketch import GroupedMinMaxSketch
    from repro.core.quantizer import QuantileBucketQuantizer

    zero = (0.0, 0)
    out = {
        "quantizer.fit_encode_ns_per_elem": zero,
        "minmax.insert_ns_per_elem": zero,
        "minmax.query_ns_per_elem": zero,
        "minmax.exact_index_share": zero,
    }
    if not cfg.enable_quantization:
        return out
    fit_ns, insert_ns, query_ns = [], [], []
    exact = queried = 0
    for keys, values in operands:
        def quantizer():
            # The bucket budget the compressor would pick for this size.
            return QuantileBucketQuantizer(
                num_buckets=min(cfg.num_buckets, max(8, keys.size // 8)),
                sketch=cfg.quantile_sketch,
                sketch_size=cfg.quantile_sketch_size,
                seed=cfg.seed,
            )

        fit_ns += [t * 1e9 / keys.size for t in _timed(
            lambda: quantizer().fit_encode(values), REPEATS)]
        if not cfg.enable_minmax:
            continue
        quant = quantizer()
        pos_sel = np.flatnonzero(values >= 0)
        pos_enc, _ = quant.fit_encode(values, pos_sel=pos_sel)
        if pos_enc is None:
            continue
        pos_keys = keys.take(pos_sel)
        buckets = quant.buckets_for_sign(1)

        def sketch():
            return GroupedMinMaxSketch(
                num_groups=cfg.num_groups,
                index_range=max(buckets.num_buckets, 1),
                num_rows=cfg.minmax_rows,
                total_bins=cfg.minmax_total_bins(pos_keys.size),
                seed=cfg.seed,
                hash_family=cfg.hash_family,
            )

        for _ in range(REPEATS):
            grouped = sketch()
            t0 = time.perf_counter()
            sorted_keys, offsets, counts = grouped.partition_flat(
                pos_keys, pos_enc
            )
            grouped.insert_flat(sorted_keys, offsets, counts)
            insert_ns.append(
                (time.perf_counter() - t0) * 1e9 / pos_keys.size
            )
        bounds = np.concatenate(([0], np.cumsum(counts)))
        groups = [g for g in range(counts.size) if counts[g]]

        def query():
            return [
                grouped.query_group(g, sorted_keys[bounds[g]:bounds[g + 1]])
                for g in groups
            ]

        query_ns += [t * 1e9 / pos_keys.size
                     for t in _timed(query, REPEATS)]
        for g, decoded in zip(groups, query()):
            true = offsets[bounds[g]:bounds[g + 1]] + g * grouped.group_width
            if np.any(decoded > true):
                failures.append("MinMaxSketch decoded above the true index")
            exact += int(np.count_nonzero(decoded == true))
            queried += decoded.size
    out["quantizer.fit_encode_ns_per_elem"] = _med(fit_ns)
    if insert_ns:
        out["minmax.insert_ns_per_elem"] = _med(insert_ns)
        out["minmax.query_ns_per_elem"] = _med(query_ns)
        out["minmax.exact_index_share"] = (exact / queried, queried)
    return out


def _entropy(messages, wires, entropy: bool, failures) -> Dict[str, Metric]:
    from repro.core.entropy import (
        decode_indexes,
        encode_indexes,
        quantize_freqs,
    )
    from repro.core.serialization import PAYLOAD_VERSION_V2, serialize_message

    out = {
        "entropy.encode_ns_per_elem": (0.0, 0),
        "entropy.decode_ns_per_elem": (0.0, 0),
        "entropy.saved_share": (1.0, 0),
    }
    if not entropy:
        return out
    enc_ns, dec_ns = [], []
    for message in messages:
        for part in message.payload.parts:
            if part.indexes is None or part.nnz == 0:
                continue
            symbols = part.indexes
            freqs = quantize_freqs(
                np.bincount(symbols, minlength=part.buckets.num_buckets)
            )
            blob = encode_indexes(symbols, freqs)
            if not np.array_equal(
                decode_indexes(blob, freqs, symbols.size), symbols
            ):
                failures.append("entropy round trip is not lossless")
            enc_ns += [t * 1e9 / symbols.size for t in _timed(
                lambda: encode_indexes(symbols, freqs), REPEATS)]
            dec_ns += [t * 1e9 / symbols.size for t in _timed(
                lambda: decode_indexes(blob, freqs, symbols.size), REPEATS)]
    plain = sum(
        len(serialize_message(m, version=PAYLOAD_VERSION_V2, entropy=False))
        for m in messages
    )
    if enc_ns:
        out["entropy.encode_ns_per_elem"] = _med(enc_ns)
        out["entropy.decode_ns_per_elem"] = _med(dec_ns)
    out["entropy.saved_share"] = (
        sum(len(w) for w in wires) / plain, len(messages)
    )
    return out


def _framing(wire: bytes, failures) -> Dict[str, Metric]:
    from repro.runtime.framing import (
        DEFAULT_CHUNK_BYTES,
        KIND_GRAD,
        ChunkReassembler,
        iter_chunk_frames,
        pack_frame,
        unpack_frame,
    )

    if len(wire) > DEFAULT_CHUNK_BYTES:
        def pack():
            return list(iter_chunk_frames(
                KIND_GRAD, 0, [wire], chunk_bytes=DEFAULT_CHUNK_BYTES))

        frames = pack()

        def unpack():
            reassembler = ChunkReassembler()
            for frame in frames[:-1]:
                reassembler.feed(unpack_frame(frame)[2])
            return b"".join(
                reassembler.finish(unpack_frame(frames[-1])[2])[1])

        chunks = len(frames) - 1
    else:
        def pack():
            return pack_frame(KIND_GRAD, 0, wire)

        frame = pack()

        def unpack():
            return unpack_frame(frame)[2]

        chunks = 1
    if unpack() != wire:
        failures.append("framing round trip changed the payload")
    return {
        "framing.pack_us": _med(_timed(pack, 50), 1e6),
        "framing.unpack_us": _med(_timed(unpack, 50), 1e6),
        "framing.chunks_per_msg": (float(chunks), 1),
    }


def _echo(setup: Setup, message_bytes: int, failures) -> Dict[str, Metric]:
    """ECHO round trips through a 1-worker probe cluster."""
    from repro.optim import Adam
    from repro.runtime import RuntimeCluster, RuntimeConfig, WorkerBootstrap

    shard = setup.train.subset(np.arange(min(64, setup.train.num_rows)))
    bootstrap = WorkerBootstrap(
        worker_id=0,
        dataset=shard,
        model=setup.model,
        optimizer=Adam(learning_rate=LEARNING_RATE),
        compressor=setup.compressor_factory(),
        batch_size=8,
        seed=setup.seed,
    )
    out: Dict[str, Metric] = {}
    config = RuntimeConfig(backend=setup.workload.backend)
    with RuntimeCluster([bootstrap], config) as cluster:
        for name, size in (("4k", 4096), ("msg", max(1, message_bytes))):
            payload = bytes(range(256)) * (size // 256) + bytes(size % 256)
            for _ in range(10):
                reply = cluster.echo(0, payload)
            if bytes(reply) != payload:
                failures.append(f"echo returned different bytes ({name})")
            out[f"transport.echo_rtt_us_{name}"] = _med(_timed(
                lambda: cluster.echo(0, payload), ECHO_ROUND_TRIPS), 1e6)
    return out
