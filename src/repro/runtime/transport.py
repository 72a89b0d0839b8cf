"""Transport abstraction: how driver/worker frames cross address spaces.

A :class:`Transport` is the driver-side handle to ``W`` workers.  It
moves opaque frame bytes (built by :mod:`repro.runtime.framing`) and
knows nothing about their contents — retries, timeouts, and failure
policies live one layer up in :mod:`repro.runtime.supervision`.

Three backends:

* :class:`SimTransport` — in-process loopback.  Workers are plain
  callables serviced synchronously; the byte path (serialize → frame →
  deserialize) is identical to the real backends.
* :class:`MultiprocessTransport` — one spawned OS process per worker,
  frames over :func:`multiprocessing.Pipe`.
* :class:`~repro.runtime.aio.AioTransport` — one spawned OS process
  per worker, frames as length-prefixed byte streams over host-local
  TCP sockets, all multiplexed on one ``selectors`` event loop with
  bounded per-worker queues (see ``docs/runtime.md``).

All present the same blocking ``send`` / ``recv(timeout)`` surface,
which the conformance suite (``tests/test_transport_conformance.py``)
runs against each backend.
"""

from __future__ import annotations

import collections
import select
import socket
import threading
from typing import Callable, Deque, Iterable, List, Optional, Sequence

from .. import telemetry
from .framing import (
    HELLO_PAYLOAD,
    KIND_HELLO,
    FrameAssembler,
    FrameError,
    NegotiationError,
    check_hello,
    pack_frame,
    unpack_frame,
)

__all__ = [
    "TransportError",
    "TransportTimeout",
    "TransportClosed",
    "TransportBackpressure",
    "Transport",
    "SimTransport",
    "MultiprocessTransport",
    "PipeEndpoint",
    "SocketEndpoint",
    "make_transport",
    "TRANSPORT_BACKENDS",
]

#: Registry of backend names accepted by :func:`make_transport` and the
#: ``--backend`` CLI flag.
TRANSPORT_BACKENDS = ("sim", "mp", "aio")


class TransportError(RuntimeError):
    """Base class for transport failures."""


class TransportTimeout(TransportError):
    """No frame arrived from the worker within the allowed time."""


class TransportClosed(TransportError):
    """The peer endpoint is gone (process exit, closed pipe/socket)."""


class TransportBackpressure(TransportError):
    """A bounded send/receive queue stayed full past its deadline.

    Raised instead of buffering without limit (memory blow-up) or
    silently dropping the frame; the supervisor's retry loop turns a
    persistent one into a structured
    :class:`~repro.runtime.supervision.RetryExhaustedError`.
    """


class Transport:
    """Driver-side frame pipe to ``W`` workers.

    Subclasses implement point-to-point byte delivery; they do not
    retry, reorder, or interpret frames.  A spawned worker's connection
    opens with a ``HELLO`` each way, which the driver checks
    (:func:`~repro.runtime.framing.check_hello`) before the transport
    is returned; there is no per-connection wire state after it —
    every connection speaks frame v2 with the ops plane on.
    """

    name: str = "abstract"

    def __init__(self, num_workers: int) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.num_workers = int(num_workers)

    def _check_worker(self, worker_id: int) -> None:
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(
                f"worker_id {worker_id} outside [0, {self.num_workers})"
            )

    def send(self, worker_id: int, frame: bytes) -> None:
        """Deliver one frame to a worker (raises on a dead endpoint)."""
        raise NotImplementedError

    def recv(self, worker_id: int, timeout: float) -> bytes:
        """Next frame from a worker; :class:`TransportTimeout` if none."""
        raise NotImplementedError

    def alive(self, worker_id: int) -> bool:
        """Best-effort liveness of the worker's endpoint."""
        raise NotImplementedError

    def terminate(self, worker_id: int) -> None:
        """Forcibly kill a worker endpoint (fault testing)."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear down all endpoints; idempotent."""
        raise NotImplementedError

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _hello_reply(worker_id: int, kind: int, payload: bytes) -> bytes:
    """Check a worker's opening frame; returns the driver's HELLO.

    Every connection opens with a ``HELLO``; any other opener is a
    peer that does not speak payload v2.

    Raises:
        NegotiationError: the opener is not a HELLO, or its version
            ranges exclude v2 — a structured construction failure,
            never retried.
        FrameError: a malformed HELLO payload.
    """
    if kind != KIND_HELLO:
        raise NegotiationError(
            f"worker {worker_id} opened with frame kind {kind}, not HELLO"
        )
    check_hello(payload)
    return pack_frame(KIND_HELLO, worker_id, HELLO_PAYLOAD)


# ----------------------------------------------------------------------
# sim: in-process loopback
# ----------------------------------------------------------------------
class SimTransport(Transport):
    """Synchronous in-process transport.

    Each worker is a handler ``fn(frame_bytes) -> iterable of reply
    frames`` run *synchronously* inside :meth:`send`; replies queue in
    per-worker driver inboxes until :meth:`recv` pops them.  ``recv``
    never waits — an empty inbox is exactly what a timeout looks like
    here, so supervision retry paths are exercised without real sleeps.

    Args:
        handlers: one handler per worker (the cluster passes each
            in-process worker's
            :meth:`~repro.runtime.worker_runtime.WorkerRuntime.handle_frame`).
    """

    name = "sim"

    def __init__(
        self, handlers: Sequence[Callable[[bytes], Iterable[bytes]]]
    ) -> None:
        # No wire between in-process peers, so there is no HELLO.
        super().__init__(len(handlers))
        self._handlers = list(handlers)
        self._inboxes: List[Deque[bytes]] = [
            collections.deque() for _ in handlers
        ]
        self._dead = set()
        self._closed = False

    def send(self, worker_id: int, frame: bytes) -> None:
        self._check_worker(worker_id)
        if self._closed:
            raise TransportClosed("transport is closed")
        if worker_id in self._dead:
            raise TransportClosed(f"worker {worker_id} was terminated")
        telemetry.counter("transport.bytes_sent", len(frame), worker=worker_id)
        for reply in self._handlers[worker_id](bytes(frame)):
            self._inboxes[worker_id].append(bytes(reply))

    def recv(self, worker_id: int, timeout: float) -> bytes:
        self._check_worker(worker_id)
        if worker_id in self._dead:
            raise TransportClosed(f"worker {worker_id} was terminated")
        inbox = self._inboxes[worker_id]
        if not inbox:
            raise TransportTimeout(
                f"no frame from worker {worker_id} (simulated timeout)"
            )
        frame = inbox.popleft()
        telemetry.counter("transport.bytes_recv", len(frame), worker=worker_id)
        return frame

    def alive(self, worker_id: int) -> bool:
        self._check_worker(worker_id)
        return not self._closed and worker_id not in self._dead

    def terminate(self, worker_id: int) -> None:
        self._check_worker(worker_id)
        self._dead.add(worker_id)
        self._inboxes[worker_id].clear()

    def close(self) -> None:
        self._closed = True
        for inbox in self._inboxes:
            inbox.clear()


# ----------------------------------------------------------------------
# worker-side endpoints (used inside spawned worker processes)
# ----------------------------------------------------------------------
class PipeEndpoint:
    """Worker-side wrapper over a multiprocessing connection."""

    def __init__(self, conn) -> None:
        self._conn = conn
        self._lock = threading.Lock()

    def send(self, frame: bytes) -> None:
        with self._lock:
            self._conn.send_bytes(frame)

    def recv(self) -> Optional[bytes]:
        """Blocking receive; ``None`` when the driver side hung up."""
        try:
            return self._conn.recv_bytes()
        except (EOFError, OSError):
            return None

    def close(self) -> None:
        self._conn.close()


class SocketEndpoint:
    """Worker-side wrapper over a connected TCP socket.

    The spawned worker's end of an ``aio`` connection (the driver side
    is :class:`~repro.runtime.aio.AioTransport`).  Frame reassembly
    goes through a :class:`~repro.runtime.framing.FrameAssembler`: the
    socket fills the assembler's reusable buffer via ``recv_into`` (no
    per-chunk bytes objects) and complete frames are copied out exactly
    once.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._lock = threading.Lock()
        self._assembler = FrameAssembler()

    def send(self, frame: bytes) -> None:
        with self._lock:
            # The lock exists precisely to serialise whole-frame writes
            # from concurrent senders; sendall must happen under it or
            # two frames could interleave on the stream.
            self._sock.sendall(frame)  # repro: noqa[lock-order] — the lock's purpose is to serialise this blocking write; per-endpoint lock, never nested

    def recv(self) -> Optional[bytes]:
        """Blocking receive of one frame; ``None`` on EOF."""
        while True:
            try:
                frame = self._assembler.next_frame()
            except FrameError:
                return None  # desynchronised stream: treat as hang-up
            if frame is not None:
                return frame
            view = self._assembler.writable()
            try:
                n = self._sock.recv_into(view)
            except OSError:
                return None
            if n == 0:
                return None
            self._assembler.commit(n)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# mp: spawned processes over pipes
# ----------------------------------------------------------------------
class MultiprocessTransport(Transport):
    """One spawned process per worker, frames over duplex pipes.

    The ``spawn`` start method is used unconditionally: children
    re-import the package instead of inheriting arbitrary parent state
    (numpy RNGs, open sockets), which keeps worker determinism honest
    and matches the only method available on every platform.
    """

    name = "mp"

    #: seconds to wait for pipe writability before declaring
    #: backpressure — a healthy worker drains its pipe continuously, so
    #: a pipe that stays full this long has a wedged or absent consumer.
    SEND_TIMEOUT = 10.0

    #: seconds to wait for a worker's HELLO after spawn
    #: (spawn + import numpy can take seconds on a loaded CI box).
    HELLO_TIMEOUT = 60.0

    def __init__(self, num_workers: int) -> None:
        super().__init__(num_workers)
        import multiprocessing

        from . import worker_main

        ctx = multiprocessing.get_context("spawn")
        self._conns = []
        self._procs = []
        self._closed = False
        try:
            for worker_id in range(num_workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=worker_main.pipe_worker_entry,
                    args=(child_conn, worker_id),
                    daemon=True,
                    name=f"repro-worker-{worker_id}",
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
            for worker_id in range(num_workers):
                self._negotiate(worker_id)
        except BaseException:
            self.close()
            raise

    def _negotiate(self, worker_id: int) -> None:
        """HELLO exchange with one spawned worker: the worker opens
        with a HELLO, the driver checks it and answers with its own."""
        conn = self._conns[worker_id]
        try:
            if not conn.poll(self.HELLO_TIMEOUT):
                raise TransportTimeout(
                    f"worker {worker_id} sent no HELLO within "
                    f"{self.HELLO_TIMEOUT:.1f}s"
                )
            frame = conn.recv_bytes()
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise TransportClosed(
                f"worker {worker_id} pipe closed during HELLO: {exc}"
            ) from exc
        kind, sender, payload = unpack_frame(frame)
        if sender != worker_id:
            raise TransportError(
                f"bad hello from worker {worker_id}: sender {sender}"
            )
        conn.send_bytes(_hello_reply(sender, kind, payload))

    def send(self, worker_id: int, frame: bytes) -> None:
        self._check_worker(worker_id)
        conn = self._conns[worker_id]
        # A full pipe means the consumer stopped draining; bound the
        # wait instead of blocking in send_bytes forever (the pipe
        # buffer itself bounds queued memory).
        try:
            _, writable, _ = select.select(
                [], [conn.fileno()], [], self.SEND_TIMEOUT
            )
        except (OSError, ValueError) as exc:
            raise TransportClosed(
                f"worker {worker_id} pipe is closed: {exc}"
            ) from exc
        if not writable:
            raise TransportBackpressure(
                f"worker {worker_id} pipe not writable within "
                f"{self.SEND_TIMEOUT:.1f}s (consumer not draining)"
            )
        try:
            conn.send_bytes(frame)
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise TransportClosed(
                f"worker {worker_id} pipe is closed: {exc}"
            ) from exc
        telemetry.counter("transport.bytes_sent", len(frame), worker=worker_id)

    def recv(self, worker_id: int, timeout: float) -> bytes:
        self._check_worker(worker_id)
        conn = self._conns[worker_id]
        try:
            if not conn.poll(max(timeout, 0.0)):
                raise TransportTimeout(
                    f"no frame from worker {worker_id} within {timeout:.3f}s"
                )
            frame = conn.recv_bytes()
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise TransportClosed(
                f"worker {worker_id} pipe is closed: {exc}"
            ) from exc
        telemetry.counter("transport.bytes_recv", len(frame), worker=worker_id)
        return frame

    def alive(self, worker_id: int) -> bool:
        self._check_worker(worker_id)
        return self._procs[worker_id].is_alive()

    def terminate(self, worker_id: int) -> None:
        self._check_worker(worker_id)
        self._procs[worker_id].terminate()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)


def make_transport(
    backend: str,
    num_workers: int,
    *,
    handlers: Optional[Sequence[Callable[[bytes], Iterable[bytes]]]] = None,
    tcp_host: str = "127.0.0.1",
) -> Transport:
    """Build a transport by backend name.

    ``sim`` requires ``handlers`` (the in-process worker callables);
    ``mp`` and ``aio`` spawn real worker processes, check each one's
    HELLO, and leave them waiting for an ``INIT`` frame.
    """
    if backend == "sim":
        if handlers is None:
            raise ValueError("sim backend requires in-process handlers")
        return SimTransport(handlers)
    if backend == "mp":
        return MultiprocessTransport(num_workers)
    if backend == "aio":
        from .aio import AioTransport  # deferred: keeps import cheap

        return AioTransport(num_workers, host=tcp_host)
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {TRANSPORT_BACKENDS}"
    )
