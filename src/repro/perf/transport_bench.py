"""Transport echo micro-benchmark: frame round-trip cost per backend.

Times ``ECHO`` round-trips through each runtime transport at a couple
of payload sizes, so BENCH_codec.json records what a gradient exchange
costs *beyond* the codec work: sim's synchronous loopback is the
floor, ``mp`` adds pipe syscalls and process scheduling, ``aio`` adds
the socket stack and its event loop.  Workers answer ``ECHO`` before
``INIT``, so no training state is involved — this isolates pure
transport overhead.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..runtime.framing import (
    KIND_ECHO,
    KIND_STOP,
    pack_frame,
    unpack_frame,
)
from ..runtime.transport import (
    TRANSPORT_BACKENDS,
    TransportClosed,
    make_transport,
)
from .harness import BenchResult, time_kernel

__all__ = [
    "TransportBenchResult",
    "TRANSPORT_PAYLOAD_SIZES",
    "run_transport_bench",
]

#: payload sizes bracketing a real compressed-gradient message
#: (a few-KB quantized message and a larger sketch-bearing one)
TRANSPORT_PAYLOAD_SIZES = (4_096, 65_536)

#: echo round-trips per timed call — enough to amortise timer overhead
#: without making the mp/aio suite slow
_MESSAGES_PER_CALL = 20


class TransportBenchResult(BenchResult):
    """A :class:`BenchResult` whose elements are messages.

    Adds the two quantities the transport rows are read for —
    messages/sec and bytes/message — to the JSON record.
    """

    def to_json(self) -> dict:
        record = super().to_json()
        record["bytes_per_message"] = (
            self.bytes_processed // self.elements if self.elements else 0
        )
        record["messages_per_s"] = (
            round(self.elements / self.seconds, 1) if self.seconds else 0.0
        )
        return record


def _echo_handler(worker_id: int):
    def handler(frame: bytes) -> List[bytes]:
        kind, _, payload = unpack_frame(frame)
        if kind != KIND_ECHO:
            return []
        return [pack_frame(KIND_ECHO, worker_id, payload)]

    return handler


def _build(backend: str):
    if backend == "sim":
        return make_transport("sim", 1, handlers=[_echo_handler(0)])
    return make_transport(backend, 1)


def run_transport_bench(
    backends: Optional[Iterable[str]] = None,
    payload_sizes: Sequence[int] = TRANSPORT_PAYLOAD_SIZES,
    *,
    warmup: int = 1,
    repeats: int = 3,
) -> List[BenchResult]:
    """Echo round-trip timings for each backend and payload size.

    One timed call moves ``_MESSAGES_PER_CALL`` frames driver → worker
    and back; ``bytes_processed`` counts the driver→worker frame bytes
    (the direction a gradient push pays for), so ``mb_per_s`` reads as
    one-way goodput.
    """
    if backends is None:
        backends = TRANSPORT_BACKENDS
    results: List[BenchResult] = []
    for backend in backends:
        if backend not in TRANSPORT_BACKENDS:
            raise ValueError(f"unknown transport backend {backend!r}")
        transport = _build(backend)
        try:
            for size in payload_sizes:
                frame = pack_frame(KIND_ECHO, 0, b"\xa5" * int(size))

                def kernel():
                    for _ in range(_MESSAGES_PER_CALL):
                        transport.send(0, frame)
                        transport.recv(0, 30.0)

                timed = time_kernel(
                    f"transport_echo/{backend}/{size}",
                    kernel,
                    elements=_MESSAGES_PER_CALL,
                    bytes_processed=_MESSAGES_PER_CALL * len(frame),
                    warmup=warmup,
                    repeats=repeats,
                )
                results.append(
                    TransportBenchResult(
                        name=timed.name,
                        elements=timed.elements,
                        bytes_processed=timed.bytes_processed,
                        seconds=timed.seconds,
                        samples=timed.samples,
                    )
                )
        finally:
            try:
                if transport.alive(0):
                    transport.send(0, pack_frame(KIND_STOP, 0))
            except TransportClosed:
                pass
            transport.close()
    return results
