"""Wire serialization bench: payload v1 vs v2 dense index coding.

Times ``serialize_message``/``deserialize_message`` at payload version
1 (the frozen legacy encoding) and at version 2 with ``entropy=True``
(dense fixed-radix coding of the bucket-index streams), over the
suite's gradient sizes, and records the measured bytes-on-wire of each
version so the v2 reduction is a number in ``BENCH_codec.json`` rather
than a claim.

The byte accounting comes from the codec's own telemetry counters
(``codec.entropy.plain_bytes`` / ``codec.entropy.coded_bytes``,
emitted where the serializer chooses the index block): the bench
installs a summing probe recorder around one v2 serialize per size, so
the JSON reflects exactly what the encoder metered on the wire path.

The main rows use the quantization-only configuration
(``enable_minmax=False``) — the only payload kind with a bucket-index
stream.  The ``_sketch`` rows time the full configuration, whose v2
sketch parts drop the bucket splits, radix-code every group's cells as
one stream and ship Rice-coded keys (both readers decode the keys); its
bytes at both versions are recorded under ``sketch`` in the summary
section.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..core.compressor import SketchMLCompressor
from ..core.config import SketchMLConfig
from ..core.serialization import (
    deserialize_message,
    deserialize_message_chunks,
    iter_serialize_message,
    serialize_message,
)
from .harness import BenchResult, time_kernel
from .suite import FULL_SIZES, QUICK_SIZES, _synthetic_gradient

__all__ = ["WIRE_SCHEMA", "run_wire_bench"]

#: schema tag of the ``wire`` section written next to ``kernels``
WIRE_SCHEMA = "repro-bench-wire/1"

#: chunk size for the streaming-encode kernel (matches the runtime
#: default ``RuntimeConfig.chunk_bytes``)
_STREAM_CHUNK_BYTES = 65536


class _NoopSpan:
    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _CounterProbe:
    """Sums telemetry counters by name; records nothing else."""

    def __init__(self) -> None:
        self.totals: Dict[str, int] = {}

    def counter(self, name: str, value: int, attrs: Dict[str, Any]) -> None:
        self.totals[name] = self.totals.get(name, 0) + int(value)

    def span(self, name: str, attrs: Dict[str, Any]) -> _NoopSpan:
        return _NOOP_SPAN

    def gauge(self, name: str, value: float, attrs: Dict[str, Any]) -> None:
        return None

    def hist(self, name: str, value: float, attrs: Dict[str, Any]) -> None:
        return None

    def measure(self, name: str, value: float, unit: str) -> None:
        return None

    def event(self, name: str, attrs: Dict[str, Any]) -> None:
        return None


def _entropy_counters(message) -> Dict[str, int]:
    """One v2 serialize under a summing probe → the codec's byte meters."""
    probe = _CounterProbe()
    previous = telemetry.set_recorder(probe)  # type: ignore[arg-type]
    try:
        serialize_message(message, version=2, entropy=True)
    finally:
        telemetry.set_recorder(previous)
    return {
        "plain_bytes": probe.totals.get("codec.entropy.plain_bytes", 0),
        "coded_bytes": probe.totals.get("codec.entropy.coded_bytes", 0),
    }


def _wire_message(nnz: int, enable_minmax: bool = False):
    keys, values, dimension = _synthetic_gradient(nnz)
    cfg = SketchMLConfig.full(seed=0, enable_minmax=enable_minmax)
    return SketchMLCompressor(cfg).compress(keys, values, dimension)


def _sketch_rows(
    nnz: int, warmup: int, repeats: int
) -> Tuple[List[BenchResult], Dict[str, Any]]:
    """Encode/decode of a full-SketchML message at both versions."""
    message = _wire_message(nnz, enable_minmax=True)
    wires = {
        "v1": serialize_message(message),
        "v2": serialize_message(message, version=2),
    }
    results = []
    for tag, wire in wires.items():
        version = int(tag[1])
        results.append(time_kernel(
            f"wire_encode_{tag}_sketch/{nnz}",
            lambda v=version: serialize_message(message, version=v),
            elements=nnz,
            bytes_processed=len(wire),
            warmup=warmup,
            repeats=repeats,
        ))
        results.append(time_kernel(
            f"wire_decode_{tag}_sketch/{nnz}",
            lambda d=wire: deserialize_message(d),
            elements=nnz,
            bytes_processed=len(wire),
            warmup=warmup,
            repeats=repeats,
        ))
    v1_len, v2_len = len(wires["v1"]), len(wires["v2"])
    return results, {
        "v1_bytes": v1_len,
        "v2_bytes": v2_len,
        "reduction_pct": round(100.0 * (1.0 - v2_len / v1_len), 2),
    }


def run_wire_bench(
    sizes: Optional[Sequence[int]] = None,
    *,
    quick: bool = False,
    warmup: Optional[int] = None,
    repeats: Optional[int] = None,
) -> Tuple[List[BenchResult], Dict[str, Any]]:
    """Time the wire codec at both payload versions.

    Returns the timed results (merged into the main kernel table) and
    the ``wire`` summary section: per size, the measured serialized
    bytes at v1 and at v2-with-entropy, the percentage reduction, the
    encoder's own plain/coded telemetry byte counters, and the same
    v1/v2 byte comparison for a full-SketchML message (``sketch``).
    """
    if sizes is None:
        sizes = QUICK_SIZES if quick else FULL_SIZES
    if warmup is None:
        warmup = 1 if quick else 3
    if repeats is None:
        repeats = 5 if quick else 7
    results: List[BenchResult] = []
    per_size: Dict[str, Dict[str, Any]] = {}
    for nnz in sizes:
        nnz = int(nnz)
        message = _wire_message(nnz)
        v1 = serialize_message(message)
        v2 = serialize_message(message, version=2, entropy=True)
        counters = _entropy_counters(message)
        results.append(time_kernel(
            f"wire_encode_v1/{nnz}",
            lambda m=message: serialize_message(m),
            elements=nnz,
            bytes_processed=len(v1),
            warmup=warmup,
            repeats=repeats,
        ))
        results.append(time_kernel(
            f"wire_encode_v2/{nnz}",
            lambda m=message: serialize_message(m, version=2, entropy=True),
            elements=nnz,
            bytes_processed=len(v2),
            warmup=warmup,
            repeats=repeats,
        ))
        results.append(time_kernel(
            f"wire_decode_v1/{nnz}",
            lambda d=v1: deserialize_message(d),
            elements=nnz,
            bytes_processed=len(v1),
            warmup=warmup,
            repeats=repeats,
        ))
        results.append(time_kernel(
            f"wire_decode_v2/{nnz}",
            lambda d=v2: deserialize_message(d),
            elements=nnz,
            bytes_processed=len(v2),
            warmup=warmup,
            repeats=repeats,
        ))
        # Streaming round trip: chunked encode straight into the
        # incremental decoder, no contiguous payload ever built.
        results.append(time_kernel(
            f"wire_stream_v2/{nnz}",
            lambda m=message: deserialize_message_chunks(
                iter_serialize_message(
                    m, version=2, entropy=True,
                    chunk_bytes=_STREAM_CHUNK_BYTES,
                )
            ),
            elements=nnz,
            bytes_processed=len(v2),
            warmup=warmup,
            repeats=repeats,
        ))
        sketch_results, sketch_bytes = _sketch_rows(nnz, warmup, repeats)
        results.extend(sketch_results)
        reduction = (1.0 - len(v2) / len(v1)) if len(v1) else 0.0
        per_size[str(nnz)] = {
            "v1_bytes": len(v1),
            "v2_bytes": len(v2),
            "reduction_pct": round(100.0 * reduction, 2),
            "entropy": {
                "plain_bytes": counters["plain_bytes"],
                "coded_bytes": counters["coded_bytes"],
                "saved_bytes": (
                    counters["plain_bytes"] - counters["coded_bytes"]
                ),
            },
            "sketch": sketch_bytes,
        }
    section = {
        "schema": WIRE_SCHEMA,
        "config": (
            "quantization-only (enable_minmax=False); "
            "sketch: full SketchML"
        ),
        "sizes": per_size,
    }
    return results, section
