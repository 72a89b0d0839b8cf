"""High-concurrency gather soak: hundreds of simulated workers.

The transport micro-benchmark (:mod:`~repro.perf.transport_bench`)
measures per-frame codec + syscall cost with a handful of real worker
processes.  This module measures the thing the ``aio`` backend exists
for: **gather latency under fan-in at C10k-adjacent scale**, where the
driver must collect one gradient from each of 500 workers per round
and a few stragglers dominate every barrier.

Spawning 500 OS processes on a CI box is a non-starter, so the swarm
is simulated: one service thread owns ``W`` real TCP client sockets
(real connects, real SKRT hellos, real frames on real kernel buffers)
multiplexed on a ``selectors`` loop with a timer heap.  Each request
is answered with a canned *serialized gradient message* after a seeded
per-worker service delay — a small base cost plus an occasional
straggler stall, the fan-in shape the SketchML paper's cluster traces
motivate.  The driver side then decodes every reply through the real
``deserialize_message`` path.

Two driver modes over :class:`~repro.runtime.aio.AioTransport`:

``aio``
    A barrier per round, with replies serviced in **arrival order** via
    :meth:`ready_workers` — early gradients decode while stragglers
    are still thinking (the cluster's gather does exactly this).
``aio-overlap``
    No global barrier: each worker is re-armed the moment its reply is
    decoded, so one straggler stalls one pipeline instead of all
    ``W``: round throughput approaches the *mean* service time instead
    of the max.

Results carry messages/s plus p50/p99 per-message round latency and
land in ``BENCH_codec.json`` next to the codec kernels::

    python -m repro perf --soak                  # 8 / 64 / 500 workers
    python -m repro perf --soak --quick          # CI smoke
    python -m repro perf --soak --soak-workers 200 --soak-rounds 10
"""

from __future__ import annotations

import heapq
import selectors
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import telemetry
from ..core import SketchMLCompressor, SketchMLConfig, deserialize_message, serialize_message
from ..runtime.aio import AioTransport
from ..runtime.framing import (
    HELLO_PAYLOAD,
    KIND_ECHO,
    KIND_GRAD,
    KIND_HELLO,
    FrameAssembler,
    pack_ack,
    pack_frame,
    unpack_frame,
    unpack_header,
)
from .harness import BenchResult

__all__ = [
    "SOAK_MODES",
    "SoakBenchResult",
    "WorkerSwarm",
    "run_soak_bench",
]

#: driver modes, baseline first (REPORT.md quotes ratios against aio)
SOAK_MODES = ("aio", "aio-overlap")

#: gather timeout per reply — generous; stragglers stall well under 1 s
_RECV_TIMEOUT = 30.0


@dataclass(frozen=True)
class SoakBenchResult(BenchResult):
    """One soak run: ``workers`` simulated workers × ``rounds`` gathers.

    ``elements`` counts gathered messages and ``seconds`` is the whole
    run, so the inherited throughput properties are not meaningful —
    :attr:`messages_per_s` and the latency percentiles are the story.
    """

    workers: int = 0
    rounds: int = 0
    p50_ms: float = 0.0
    p99_ms: float = 0.0

    @property
    def messages_per_s(self) -> float:
        if self.seconds == 0.0:
            return 0.0
        return self.elements / self.seconds

    def to_json(self) -> dict:
        record = super().to_json()
        record.update(
            {
                "workers": self.workers,
                "rounds": self.rounds,
                "messages_per_s": round(self.messages_per_s, 1),
                "p50_ms": round(self.p50_ms, 3),
                "p99_ms": round(self.p99_ms, 3),
            }
        )
        return record


def _reply_payload(nnz: int = 2_000, dimension: int = 100_000) -> bytes:
    """A real serialized SketchML gradient message for driver decode.

    Keys + quantization with packed indices: a genuine wire message
    exercising the delta-decode and bit-unpack paths (~50 µs per
    decode), but without the minmax-sketch reconstruction whose fixed
    ~300 µs cost would CPU-bound *every* soak mode on a small CI box
    and mask the concurrency difference the benchmark measures.
    """
    rng = np.random.default_rng(7)
    keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
    values = rng.laplace(scale=0.01, size=nnz)
    values[values == 0.0] = 1e-6
    config = SketchMLConfig.keys_and_quantization(pack_index_bits=True)
    message = SketchMLCompressor(config).compress(keys, values, dimension)
    return serialize_message(message)


class WorkerSwarm:
    """``W`` simulated workers on one thread: real sockets, canned work.

    Each simulated worker connects to the transport's listener, opens
    with the standard ``HELLO`` (the one constant payload, header
    naming its id), skips the driver's HELLO reply, and answers every request
    with a pre-packed ``GRAD`` frame after a seeded
    service delay.  Delays model the fan-in the soak exists to expose:

    * base: ``base_delay_s`` perturbed ±50 % per message, and
    * stragglers: with probability ``straggler_rate`` a message adds a
      ``straggler_stall_s``-scale stall (a descheduled worker, a GC
      pause, a slow batch).

    The RNG is seeded per ``(seed, worker_id)`` so a fixed seed gives
    an identical delay schedule on every run.  One ``selectors`` loop
    plus a timer heap services all sockets — no per-worker threads, no
    sleeps on the reply path.
    """

    def __init__(
        self,
        host: str,
        port: int,
        num_workers: int,
        reply_payload: bytes,
        *,
        seed: int = 0,
        base_delay_s: float = 0.002,
        straggler_rate: float = 0.01,
        straggler_stall_s: float = 0.6,
    ) -> None:
        self.num_workers = int(num_workers)
        self._host = host
        self._port = port
        self._replies = [
            pack_frame(KIND_GRAD, w, reply_payload) for w in range(num_workers)
        ]
        self._rngs = [
            np.random.default_rng([int(seed), w]) for w in range(num_workers)
        ]
        self._base = float(base_delay_s)
        self._rate = float(straggler_rate)
        self._stall = float(straggler_stall_s)
        self._socks: List[Optional[socket.socket]] = [None] * num_workers
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None
        self.served = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-soak-swarm", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        for sock in self._socks:
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        if self._error is not None:
            raise RuntimeError("worker swarm failed") from self._error

    # ------------------------------------------------------------------
    def _delay(self, worker_id: int) -> float:
        rng = self._rngs[worker_id]
        delay = self._base * float(rng.uniform(0.5, 1.5))
        if self._rate > 0 and float(rng.random()) < self._rate:
            delay += self._stall * float(rng.uniform(0.5, 1.0))
        return delay

    def _run(self) -> None:
        try:
            self._serve()
        except BaseException as exc:  # surfaced by stop()
            self._error = exc

    def _serve(self) -> None:
        sel = selectors.DefaultSelector()
        assemblers: Dict[int, FrameAssembler] = {}
        try:
            for worker_id in range(self.num_workers):
                sock = socket.create_connection(
                    (self._host, self._port), timeout=30.0
                )
                sock.settimeout(None)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._socks[worker_id] = sock
                sock.sendall(pack_frame(KIND_HELLO, worker_id, HELLO_PAYLOAD))
                sel.register(sock, selectors.EVENT_READ, worker_id)
                assemblers[worker_id] = FrameAssembler()
            # (due_time, tiebreak, worker_id) replies pending their delay
            timers: List[tuple] = []
            seq = 0
            while not self._stop.is_set():
                now = time.monotonic()
                timeout = 0.05
                if timers:
                    timeout = min(timeout, max(timers[0][0] - now, 0.0))
                for key, _ in sel.select(timeout):
                    worker_id = key.data
                    sock = self._socks[worker_id]
                    assembler = assemblers[worker_id]
                    view = assembler.writable()
                    try:
                        n = sock.recv_into(view)
                    except OSError:
                        n = 0
                    if n == 0:
                        sel.unregister(sock)
                        continue
                    assembler.commit(n)
                    while True:
                        frame = assembler.next_frame()
                        if frame is None:
                            break
                        if unpack_header(frame)[0] == KIND_HELLO:
                            continue  # the driver's pinned-version reply
                        due = time.monotonic() + self._delay(worker_id)
                        heapq.heappush(timers, (due, seq, worker_id))
                        seq += 1
                now = time.monotonic()
                while timers and timers[0][0] <= now:
                    _, _, worker_id = heapq.heappop(timers)
                    sock = self._socks[worker_id]
                    try:
                        sock.sendall(self._replies[worker_id])
                    except OSError:
                        continue  # driver tore this socket down
                    self.served += 1
        finally:
            sel.close()


# ----------------------------------------------------------------------
# driver modes
# ----------------------------------------------------------------------
def _decode_reply(frame: bytes) -> None:
    kind, _, payload = unpack_frame(frame)
    if kind != KIND_GRAD:
        raise RuntimeError(f"soak swarm sent unexpected frame kind {kind}")
    deserialize_message(payload)


def _drive_aio_barrier(
    transport: AioTransport, workers: int, rounds: int
) -> List[float]:
    """Barrier per round, but replies decoded in arrival order."""
    latencies = []
    for round_id in range(rounds):
        request = pack_frame(KIND_ECHO, 0, pack_ack(round_id))
        start = time.perf_counter()
        with telemetry.span("soak.round", mode="aio", round=round_id):
            for worker_id in range(workers):
                transport.send(worker_id, request)
            pending = set(range(workers))
            while pending:
                ready = transport.ready_workers(
                    sorted(pending), timeout=_RECV_TIMEOUT
                )
                if not ready:
                    raise RuntimeError("soak gather timed out")
                for worker_id in ready:
                    _decode_reply(transport.recv(worker_id, _RECV_TIMEOUT))
                    latencies.append(time.perf_counter() - start)
                    pending.discard(worker_id)
    return latencies


def _drive_aio_overlap(
    transport: AioTransport, workers: int, rounds: int
) -> List[float]:
    """No barrier: every worker re-armed as soon as its reply decodes."""
    latencies = []
    issued = [0] * workers
    sent_at = [0.0] * workers
    done = 0
    total = workers * rounds
    with telemetry.span("soak.pipeline", mode="aio-overlap"):
        for worker_id in range(workers):
            sent_at[worker_id] = time.perf_counter()
            transport.send(
                worker_id, pack_frame(KIND_ECHO, 0, pack_ack(0))
            )
            issued[worker_id] = 1
        while done < total:
            ready = transport.ready_workers(timeout=_RECV_TIMEOUT)
            if not ready:
                raise RuntimeError("soak pipeline timed out")
            for worker_id in ready:
                _decode_reply(transport.recv(worker_id, _RECV_TIMEOUT))
                now = time.perf_counter()
                latencies.append(now - sent_at[worker_id])
                done += 1
                if issued[worker_id] < rounds:
                    sent_at[worker_id] = now
                    transport.send(
                        worker_id,
                        pack_frame(
                            KIND_ECHO, 0, pack_ack(issued[worker_id])
                        ),
                    )
                    issued[worker_id] += 1
    return latencies


def _run_mode(
    mode: str,
    workers: int,
    rounds: int,
    payload: bytes,
    *,
    seed: int,
    base_delay_s: float,
    straggler_rate: float,
    straggler_stall_s: float,
) -> SoakBenchResult:
    transport = AioTransport(workers, spawn_workers=False)
    swarm = WorkerSwarm(
        "127.0.0.1",
        transport.port,
        workers,
        payload,
        seed=seed,
        base_delay_s=base_delay_s,
        straggler_rate=straggler_rate,
        straggler_stall_s=straggler_stall_s,
    )
    try:
        swarm.start()
        transport.wait_connected(60.0)
        start = time.perf_counter()
        if mode == "aio":
            latencies = _drive_aio_barrier(transport, workers, rounds)
        elif mode == "aio-overlap":
            latencies = _drive_aio_overlap(transport, workers, rounds)
        else:
            raise ValueError(f"unknown soak mode {mode!r}")
        elapsed = time.perf_counter() - start
    finally:
        transport.close()
        swarm.stop()
    lat_ms = np.asarray(latencies) * 1e3
    total = workers * rounds
    result = SoakBenchResult(
        name=f"soak/{mode}/w{workers}",
        elements=total,
        bytes_processed=total * len(payload),
        seconds=elapsed,
        samples=[elapsed],
        workers=workers,
        rounds=rounds,
        p50_ms=float(np.percentile(lat_ms, 50)),
        p99_ms=float(np.percentile(lat_ms, 99)),
    )
    telemetry.counter(
        "soak.messages", total, mode=mode, workers=workers
    )
    telemetry.event(
        "soak.result",
        mode=mode,
        workers=workers,
        messages_per_s=round(result.messages_per_s, 1),
        p50_ms=round(result.p50_ms, 3),
        p99_ms=round(result.p99_ms, 3),
    )
    return result


def run_soak_bench(
    worker_counts: Sequence[int] = (8, 64, 500),
    rounds: int = 30,
    *,
    modes: Sequence[str] = SOAK_MODES,
    seed: int = 0,
    base_delay_s: float = 0.002,
    straggler_rate: float = 0.01,
    straggler_stall_s: float = 0.6,
) -> List[BenchResult]:
    """Run every ``mode`` × ``worker_counts`` cell and return results.

    Each cell gathers ``rounds`` gradient messages from every simulated
    worker, so a cell moves ``workers × rounds`` messages; the delay
    model (not syscall cost) dominates, which is the production shape —
    see the module docstring for why the two modes separate.
    """
    payload = _reply_payload()
    results: List[BenchResult] = []
    for workers in worker_counts:
        if not 0 < workers <= 0xFFFE:
            raise ValueError(f"worker count {workers} out of range")
        for mode in modes:
            if mode not in SOAK_MODES:
                raise ValueError(
                    f"unknown soak mode {mode!r}; expected one of {SOAK_MODES}"
                )
            results.append(
                _run_mode(
                    mode,
                    workers,
                    rounds,
                    payload,
                    seed=seed,
                    base_delay_s=base_delay_s,
                    straggler_rate=straggler_rate,
                    straggler_stall_s=straggler_stall_s,
                )
            )
    return results
