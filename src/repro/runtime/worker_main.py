"""Entry points for spawned worker processes (``mp`` and ``aio``).

Both entries open with the HELLO check (:func:`negotiate_as_worker`)
and then run the same :func:`serve` loop over a worker-side endpoint:
block on the next frame, dispatch it, send the replies.
The first substantive frame must be ``INIT`` (a pickled
:class:`~repro.runtime.worker_runtime.WorkerBootstrap`), answered with
``READY``; after that the loop services ``EPOCH`` / ``STEP`` /
``UPDATE`` until ``STOP`` or driver hang-up.  ``ECHO`` frames are
answered at any time (the transport micro-benchmark uses them without
paying for a full bootstrap).

Unhandled exceptions are reported back as an ``ERROR`` frame naming
the worker and the frame kind being serviced, then the process exits —
the driver-side supervisor turns that into a structured failure.

A daemon heartbeat thread sends ``HEARTBEAT`` frames roughly every
``bootstrap.heartbeat_interval`` seconds (when positive) so the driver
can tell a slow worker from a dead one.  The schedule is *jittered*
(:func:`heartbeat_delays`): each worker starts at a seeded random
phase within one interval and perturbs every gap by
``heartbeat_jitter``, so hundreds of workers spread their heartbeats
across the interval instead of stampeding the driver in lockstep.
The jitter RNG is seeded from ``(seed, worker_id)``, so the schedule
is deterministic under a fixed seed.
"""

from __future__ import annotations

import pickle
import threading
import time
from typing import Iterator, Optional

import numpy as np

from .. import telemetry
from ..telemetry.metrics import SpoolHub
from .framing import (
    HELLO_PAYLOAD,
    KIND_ECHO,
    KIND_ERROR,
    KIND_HEARTBEAT,
    KIND_HELLO,
    KIND_INIT,
    KIND_READY,
    KIND_STOP,
    FrameError,
    check_hello,
    pack_frame,
    pack_metrics,
    pack_ops,
    unpack_frame,
    unpack_header,
)
from .transport import PipeEndpoint, SocketEndpoint
from .worker_runtime import WorkerBootstrap, WorkerRuntime

__all__ = [
    "serve",
    "negotiate_as_worker",
    "heartbeat_delays",
    "pipe_worker_entry",
    "tcp_worker_entry",
]


def heartbeat_delays(
    interval: float, jitter: float, seed: int, worker_id: int
) -> Iterator[float]:
    """Seeded per-worker heartbeat schedule (anti-thundering-herd).

    Yields the wait before each heartbeat: first a random phase drawn
    uniformly from ``[0, interval)`` (spreading ``W`` workers evenly
    across one interval), then ``interval`` perturbed by a uniform
    factor of ``1 ± jitter/2`` per beat so workers that started in
    phase drift apart instead of re-synchronising.  Seeding the RNG
    from ``(seed, worker_id)`` makes every worker's schedule
    deterministic under a fixed seed yet distinct from its peers'.
    """
    rng = np.random.default_rng([int(seed), int(worker_id)])
    yield float(rng.uniform(0.0, interval))
    half = jitter / 2.0
    while True:
        if half > 0:
            yield float(interval * (1.0 + rng.uniform(-half, half)))
        else:
            yield float(interval)


class _Heartbeat:
    """Daemon thread pushing HEARTBEAT frames on a jittered schedule.

    Each beat drains the worker's accumulated
    :class:`~repro.telemetry.metrics.WorkerMetrics` deltas and
    piggybacks them as an ops block in the HEARTBEAT payload — the
    driver's supervisor folds them into the metrics hub.
    """

    def __init__(
        self,
        endpoint,
        worker_id: int,
        interval: float,
        metrics,
        *,
        jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        self._endpoint = endpoint
        self._worker_id = worker_id
        self._interval = interval
        self._jitter = jitter
        self._seed = seed
        self._metrics = metrics
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._interval <= 0 or self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        delays = heartbeat_delays(
            self._interval, self._jitter, self._seed, self._worker_id
        )
        for delay in delays:
            t0 = time.perf_counter()
            if self._stop.wait(delay):
                return
            lag = (time.perf_counter() - t0) - delay
            if lag > 0:
                self._metrics.add("worker.heartbeat_lag_ns", int(lag * 1e9))
            self._metrics.add("worker.heartbeats", 1)
            frame = pack_frame(
                KIND_HEARTBEAT,
                self._worker_id,
                pack_ops(None, pack_metrics(self._metrics.take())),
            )
            try:
                self._endpoint.send(frame)
            except OSError:
                return  # driver is gone; the serve loop will exit too

    def stop(self) -> None:
        self._stop.set()


def negotiate_as_worker(endpoint, worker_id: int) -> None:
    """Worker side of the HELLO check.

    Sends the one HELLO every runtime peer sends and blocks for the
    driver's, which :func:`~repro.runtime.framing.check_hello` checks.
    Raises :class:`~repro.runtime.framing.NegotiationError` or
    :class:`~repro.runtime.framing.FrameError` when the driver's HELLO
    is refused, and ``ConnectionError`` when the driver hung up
    mid-handshake (it refused ours).
    """
    endpoint.send(pack_frame(KIND_HELLO, worker_id, HELLO_PAYLOAD))
    while True:
        frame = endpoint.recv()
        if frame is None:
            raise ConnectionError("driver hung up during the HELLO check")
        kind, _, payload = unpack_frame(frame)
        if kind == KIND_HEARTBEAT:
            continue
        if kind != KIND_HELLO:
            raise FrameError(
                f"expected HELLO reply, got frame kind {kind}"
            )
        check_hello(payload)
        return


def serve(endpoint, worker_id: int) -> None:
    """Receive loop of one worker process, after the HELLO check.

    Runs until a ``STOP`` frame, driver hang-up, or a fatal error
    (reported back as an ``ERROR`` frame before exiting).  ``INIT``
    builds a spooling :class:`WorkerRuntime` (its GRAD replies and ACKs
    carry drained metric deltas) and installs a
    :class:`~repro.telemetry.metrics.SpoolHub` over its metrics (the
    previous hub is restored on exit); every later frame goes to
    :meth:`WorkerRuntime.handle_frame`, the same dispatch the
    in-process ``sim`` transport calls (``CHUNK``/``END`` reassembly
    included).  The heartbeat thread piggybacks drained metric deltas
    on every beat.
    """
    runtime: Optional[WorkerRuntime] = None
    heartbeat: Optional[_Heartbeat] = None
    previous_hub = telemetry.metrics_hub()
    try:
        while True:
            frame = endpoint.recv()
            if frame is None:
                return  # driver hung up
            kind, _, _ = unpack_header(frame)
            if kind == KIND_STOP:
                return
            if kind == KIND_INIT:
                _, _, payload = unpack_frame(frame)
                bootstrap = WorkerBootstrap.from_bytes(payload)
                if bootstrap.trace_dir:
                    telemetry.enable_worker_recorder(
                        bootstrap.trace_dir, worker_id, bootstrap.run_id
                    )
                runtime = WorkerRuntime(bootstrap, spool=True)
                # This process exists for exactly one worker, so the
                # recorder tee can spool *every* counter it sees —
                # codec instrumentation included — for wire delivery
                # to the driver's hub.
                telemetry.set_metrics_hub(SpoolHub(runtime.metrics))
                heartbeat = _Heartbeat(
                    endpoint,
                    worker_id,
                    bootstrap.heartbeat_interval,
                    runtime.metrics,
                    jitter=bootstrap.heartbeat_jitter,
                    seed=bootstrap.seed,
                )
                heartbeat.start()
                endpoint.send(pack_frame(KIND_READY, worker_id))
                continue
            if runtime is not None:
                replies = runtime.handle_frame(frame)
            elif kind == KIND_ECHO:
                # Transport benchmarks echo without paying for INIT.
                _, _, payload = unpack_frame(frame)
                replies = [pack_frame(KIND_ECHO, worker_id, payload)]
            elif kind == KIND_HEARTBEAT:
                continue  # driver-side probes need no reply
            else:
                raise RuntimeError(
                    f"frame kind {kind} arrived before INIT"
                )
            for reply in replies:
                endpoint.send(reply)
    except Exception as exc:  # pragma: no cover - exercised via mp tests
        detail = pickle.dumps(
            {"worker_id": worker_id, "error": repr(exc)},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        try:
            endpoint.send(pack_frame(KIND_ERROR, worker_id, detail))
        except OSError:
            pass  # nothing left to report to
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        telemetry.set_metrics_hub(previous_hub)
        telemetry.close_worker_recorder()
        endpoint.close()


def pipe_worker_entry(conn, worker_id: int) -> None:
    """``mp`` backend child target: HELLO, then serve frames over a pipe."""
    _hello_and_serve(PipeEndpoint(conn), worker_id)


def tcp_worker_entry(host: str, port: int, worker_id: int) -> None:
    """``aio`` backend child target: connect back over TCP, HELLO, serve.

    The name is the socket's protocol, not a backend: this is the
    worker side of :class:`~repro.runtime.aio.AioTransport`.  The HELLO
    doubles as the connection hello: its header names this worker, so
    the driver can map the accepted socket regardless of connect order.
    """
    import socket

    sock = socket.create_connection((host, port), timeout=30.0)
    sock.settimeout(None)
    _hello_and_serve(SocketEndpoint(sock), worker_id)


def _hello_and_serve(endpoint, worker_id: int) -> None:
    negotiate_as_worker(endpoint, worker_id)
    serve(endpoint, worker_id)
