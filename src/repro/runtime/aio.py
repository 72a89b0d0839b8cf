"""Event-driven transport: every worker socket on one ``selectors`` loop.

This is the repo's one socket backend (``aio``).  Each spawned worker
process (:func:`~repro.runtime.worker_main.tcp_worker_entry`) connects
back over host-local TCP and opens with the hello handshake; frames are
length-prefixed SKRT streams.  Reading worker sockets one at a time
would make a gather's wall clock a serial walk over ``W`` sockets even
when most replies already sit in kernel buffers, so
:class:`AioTransport` multiplexes all connections on a single
``selectors`` reactor that runs *inside the calling thread*:

* ``recv(worker, timeout)`` pumps the reactor until that worker's
  inbox holds a frame — and while pumping it drains **every** readable
  socket, so early-arriving frames from other workers are reassembled
  and queued (ready for immediate decode) instead of waiting their
  turn.  :meth:`ready_workers` exposes that as a hint the cluster uses
  to gather in arrival order.
* Receive reassembly is zero-copy: each connection owns a
  :class:`~repro.runtime.framing.FrameAssembler` whose reusable buffer
  is filled directly by ``recv_into`` and sliced by ``memoryview`` —
  one copy per frame, from assembler buffer to inbox.
* Sends are vectored: queued frames are ``memoryview`` slices flushed
  with ``socket.sendmsg`` (one syscall for many frames, no
  concatenation), with partial writes resuming mid-frame.
* Both per-worker queues are bounded.  A full inbox pauses read
  interest on that socket (TCP flow control pushes back on the
  worker); a full outbox past :attr:`SEND_TIMEOUT` raises
  :class:`~repro.runtime.transport.TransportBackpressure` instead of
  buffering without limit.

Why ``selectors`` and not ``asyncio``: the Transport contract is a
*blocking* facade (``send`` / ``recv(timeout)``) driven by the
supervisor's synchronous retry loop.  An asyncio event loop would have
to live on a background thread with a cross-thread handoff per frame —
extra latency, extra locking, and a second source of scheduling
nondeterminism.  A selectors reactor pumped by the calling thread
keeps the whole driver single-threaded (fixed-seed runs stay
bit-identical) at C10k-grade fd scale.  See ``docs/runtime.md``.

This module is covered by the ``async-discipline`` lint rule: no
blocking socket calls, ``time.sleep``, or ``queue.Queue`` here — the
only place this code may wait is ``selector.select(timeout)``.
"""

from __future__ import annotations

import collections
import selectors
import socket
import time
from typing import Deque, Dict, List, Optional, Sequence

from .. import telemetry
from .framing import FrameAssembler, FrameError, unpack_frame
from .transport import (
    Transport,
    TransportBackpressure,
    TransportClosed,
    TransportError,
    TransportTimeout,
    _hello_reply,
)

__all__ = ["AioTransport"]

#: cap on buffers per sendmsg call (well under any platform IOV_MAX)
_SENDMSG_BATCH = 64


class _Connection:
    """Driver-side state of one worker socket on the reactor."""

    __slots__ = (
        "sock",
        "worker_id",
        "assembler",
        "inbox",
        "outq",
        "out_bytes",
        "closed",
        "paused",
        "registered",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.worker_id: Optional[int] = None  # None until hello
        self.assembler = FrameAssembler()
        self.inbox: Deque[bytes] = collections.deque()
        self.outq: Deque[memoryview] = collections.deque()
        self.out_bytes = 0
        self.closed = False
        self.paused = False  # read interest dropped: inbox is full
        self.registered = True


class AioTransport(Transport):
    """Connection-multiplexed transport over one ``selectors`` loop.

    Args:
        num_workers: worker count (one spawned process each).
        host: bind/connect host.
        spawn_workers: when ``False`` no processes are started; the
            caller reads :attr:`port`, connects ``num_workers``
            external clients (each sending a ``HELLO``), then calls
            :meth:`wait_connected`.  The soak benchmark attaches its
            simulated worker swarm this way.
        max_inbox_frames: per-worker receive queue bound; reads on a
            socket pause while its inbox is full and resume when the
            caller drains it.
        max_outbox_bytes: per-worker send queue bound; a send that
            cannot bring the queue under this within
            :attr:`SEND_TIMEOUT` raises ``TransportBackpressure``.
    """

    name = "aio"

    #: generous ceiling on how long workers may take to connect back
    #: (spawn + import numpy can take seconds on a loaded CI box).
    CONNECT_TIMEOUT = 60.0
    #: how long a send may pump the reactor waiting for outbox room
    SEND_TIMEOUT = 10.0

    def __init__(
        self,
        num_workers: int,
        host: str = "127.0.0.1",
        *,
        spawn_workers: bool = True,
        max_inbox_frames: int = 1024,
        max_outbox_bytes: int = 32 * 1024 * 1024,
    ) -> None:
        super().__init__(num_workers)
        if max_inbox_frames <= 0 or max_outbox_bytes <= 0:
            raise ValueError("queue bounds must be positive")
        self.max_inbox_frames = int(max_inbox_frames)
        self.max_outbox_bytes = int(max_outbox_bytes)
        self._sel = selectors.DefaultSelector()
        self._conns: Dict[int, _Connection] = {}
        self._pending: List[_Connection] = []  # accepted, hello not seen
        self._procs = []
        self._spawned = spawn_workers
        self._closed = False
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.bind((host, 0))
            self._listener.listen(num_workers)
            self._listener.setblocking(False)
            self.port = self._listener.getsockname()[1]
            self._sel.register(self._listener, selectors.EVENT_READ, None)
            if spawn_workers:
                import multiprocessing

                from . import worker_main

                ctx = multiprocessing.get_context("spawn")
                for worker_id in range(num_workers):
                    proc = ctx.Process(
                        target=worker_main.tcp_worker_entry,
                        args=(host, self.port, worker_id),
                        daemon=True,
                        name=f"repro-worker-{worker_id}",
                    )
                    proc.start()
                    self._procs.append(proc)
                self.wait_connected(self.CONNECT_TIMEOUT)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # reactor
    # ------------------------------------------------------------------
    def _pump(self, timeout: float) -> None:
        """One reactor turn: select + service every ready fd."""
        if self._closed:
            raise TransportClosed("transport is closed")
        events = self._sel.select(max(timeout, 0.0))
        for key, mask in events:
            conn = key.data
            if conn is None:
                self._accept_ready()
                continue
            if mask & selectors.EVENT_READ:
                self._on_readable(conn)
            if mask & selectors.EVENT_WRITE and not conn.closed:
                self._flush_writes(conn)

    def _interest(self, conn: _Connection) -> None:
        """Recompute the selector mask from queue state."""
        if conn.closed or not conn.registered:
            return
        mask = 0
        if not conn.paused:
            mask |= selectors.EVENT_READ
        if conn.outq:
            mask |= selectors.EVENT_WRITE
        if mask == 0:
            # Fully quiesced (inbox full, nothing to write): drop the
            # fd from the set until the caller drains the inbox.
            self._sel.unregister(conn.sock)
            conn.registered = False
        else:
            self._sel.modify(conn.sock, mask, conn)

    def _reregister(self, conn: _Connection) -> None:
        if not conn.registered and not conn.closed:
            self._sel.register(conn.sock, selectors.EVENT_READ, conn)
            conn.registered = True
            self._interest(conn)

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock)
            self._sel.register(sock, selectors.EVENT_READ, conn)
            self._pending.append(conn)

    def _on_readable(self, conn: _Connection) -> None:
        view = conn.assembler.writable()
        try:
            n = conn.sock.recv_into(view)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._mark_closed(conn, f"socket error: {exc}")
            return
        if n == 0:
            self._mark_closed(conn, "peer closed the connection")
            return
        conn.assembler.commit(n)
        self._drain_assembler(conn)

    def _drain_assembler(self, conn: _Connection) -> None:
        """Move complete frames from the assembler into the inbox."""
        while len(conn.inbox) < self.max_inbox_frames:
            try:
                frame = conn.assembler.next_frame()
            except FrameError as exc:
                self._mark_closed(conn, f"stream desynchronised: {exc}")
                return
            if frame is None:
                break
            if conn.worker_id is None:
                self._map_hello(conn, frame)
                continue
            conn.inbox.append(frame)
        if len(conn.inbox) >= self.max_inbox_frames and not conn.paused:
            conn.paused = True
            telemetry.event(
                "transport.read_paused",
                worker=conn.worker_id,
                queued=len(conn.inbox),
            )
            self._interest(conn)

    def _map_hello(self, conn: _Connection, frame: bytes) -> None:
        kind, sender, payload = unpack_frame(frame)
        if not 0 <= sender < self.num_workers or sender in self._conns:
            self._mark_closed(conn, f"bad hello from worker id {sender}")
            raise TransportError(f"bad hello from worker id {sender}")
        try:
            reply = _hello_reply(sender, kind, payload)
        except FrameError as exc:
            # A refused or malformed HELLO: close the socket and let the
            # structured error propagate out of the pump.
            self._mark_closed(conn, f"hello from worker {sender}: {exc}")
            raise
        conn.outq.append(memoryview(reply))
        conn.out_bytes += len(reply)
        conn.worker_id = sender
        self._conns[sender] = conn
        if conn in self._pending:
            self._pending.remove(conn)
        self._flush_writes(conn)

    def _mark_closed(self, conn: _Connection, reason: str) -> None:
        if conn.closed:
            return
        conn.closed = True
        conn.outq.clear()
        conn.out_bytes = 0
        if conn.registered:
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.registered = False
        try:
            conn.sock.close()
        except OSError:
            pass
        if conn in self._pending:
            self._pending.remove(conn)
        telemetry.event(
            "transport.conn_closed", worker=conn.worker_id, reason=reason
        )

    def _flush_writes(self, conn: _Connection) -> None:
        """Vectored flush: sendmsg over the queued memoryviews."""
        while conn.outq:
            bufs = []
            for view in conn.outq:
                bufs.append(view)
                if len(bufs) >= _SENDMSG_BATCH:
                    break
            try:
                n = conn.sock.sendmsg(bufs)
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                self._mark_closed(conn, f"socket error: {exc}")
                return
            if n == 0:
                break
            conn.out_bytes -= n
            while n > 0 and conn.outq:
                head = conn.outq[0]
                if n >= len(head):
                    n -= len(head)
                    conn.outq.popleft()
                else:
                    conn.outq[0] = head[n:]
                    n = 0
        self._interest(conn)

    # ------------------------------------------------------------------
    # connection setup
    # ------------------------------------------------------------------
    def wait_connected(self, timeout: Optional[float] = None) -> None:
        """Pump the reactor until every worker's hello has been mapped."""
        deadline = time.monotonic() + (
            self.CONNECT_TIMEOUT if timeout is None else timeout
        )
        while len(self._conns) < self.num_workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                missing = set(range(self.num_workers)) - set(self._conns)
                raise TransportError(
                    f"workers {sorted(missing)} never connected back"
                )
            self._pump(min(remaining, 0.5))

    # ------------------------------------------------------------------
    # Transport surface
    # ------------------------------------------------------------------
    def send(self, worker_id: int, frame: bytes) -> None:
        self._check_worker(worker_id)
        conn = self._conns.get(worker_id)
        if conn is None or conn.closed:
            raise TransportClosed(f"worker {worker_id} socket is closed")
        conn.outq.append(memoryview(frame))
        conn.out_bytes += len(frame)
        self._flush_writes(conn)  # opportunistic: usually empties here
        if conn.closed:
            raise TransportClosed(f"worker {worker_id} socket is closed")
        if conn.out_bytes > self.max_outbox_bytes:
            deadline = time.monotonic() + self.SEND_TIMEOUT
            while conn.out_bytes > self.max_outbox_bytes:
                if conn.closed:
                    raise TransportClosed(
                        f"worker {worker_id} socket is closed"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    telemetry.event(
                        "transport.backpressure",
                        worker=worker_id,
                        queued_bytes=conn.out_bytes,
                    )
                    raise TransportBackpressure(
                        f"worker {worker_id} send queue stuck at "
                        f"{conn.out_bytes} bytes for "
                        f"{self.SEND_TIMEOUT:.1f}s (consumer not draining)"
                    )
                self._pump(min(remaining, 0.5))
        telemetry.counter("transport.bytes_sent", len(frame), worker=worker_id)

    def recv(self, worker_id: int, timeout: float) -> bytes:
        self._check_worker(worker_id)
        conn = self._conns.get(worker_id)
        if conn is None:
            raise TransportClosed(f"worker {worker_id} socket is closed")
        deadline = time.monotonic() + max(timeout, 0.0)
        first = True
        while True:
            if conn.inbox:
                frame = conn.inbox.popleft()
                if conn.paused and len(conn.inbox) < self.max_inbox_frames:
                    conn.paused = False
                    # The assembler may hold complete frames received
                    # before the pause; surface them now (may re-pause).
                    self._drain_assembler(conn)
                    if not conn.paused:
                        self._reregister(conn)
                telemetry.counter(
                    "transport.bytes_recv", len(frame), worker=worker_id
                )
                return frame
            if conn.closed:
                raise TransportClosed(
                    f"worker {worker_id} socket is closed"
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0 and not first:
                raise TransportTimeout(
                    f"no frame from worker {worker_id} within {timeout:.3f}s"
                )
            # First turn is always a non-blocking pump so recv(0) can
            # still deliver frames the kernel already holds.
            self._pump(0.0 if first else min(remaining, 0.5))
            first = False

    def ready_workers(
        self,
        candidates: Optional[Sequence[int]] = None,
        timeout: float = 0.0,
    ) -> List[int]:
        """Workers whose inbox already holds a frame (arrival-order hint).

        Runs one non-blocking reactor turn first, so frames the kernel
        received since the last pump are counted.  The cluster's gather
        uses this to service early arrivals (decode overlap) instead of
        blocking on worker 0 while worker 7's reply sits buffered.

        With a positive ``timeout`` the reactor keeps pumping until at
        least one candidate is ready or the deadline passes — the soak
        benchmark's pipelined driver blocks here for the *next arrival
        from anyone* instead of picking a worker to wait on.
        """
        ids = range(self.num_workers) if candidates is None else candidates
        deadline = time.monotonic() + max(timeout, 0.0)
        wait = 0.0
        while True:
            if self._closed:
                return []
            self._pump(wait)
            ready = []
            for worker_id in ids:
                conn = self._conns.get(worker_id)
                if conn is not None and conn.inbox:
                    ready.append(worker_id)
            remaining = deadline - time.monotonic()
            if ready or remaining <= 0:
                return ready
            wait = min(remaining, 0.5)

    def alive(self, worker_id: int) -> bool:
        self._check_worker(worker_id)
        conn = self._conns.get(worker_id)
        if conn is None or conn.closed:
            return False
        if self._spawned:
            return self._procs[worker_id].is_alive()
        return True

    def terminate(self, worker_id: int) -> None:
        self._check_worker(worker_id)
        if self._spawned:
            self._procs[worker_id].terminate()
        conn = self._conns.get(worker_id)
        if conn is not None:
            self._mark_closed(conn, "terminated")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in list(self._conns.values()) + list(self._pending):
            self._mark_closed(conn, "transport closed")
        self._conns.clear()
        self._pending.clear()
        try:
            self._sel.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._sel.close()
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
