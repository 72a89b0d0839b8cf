"""Transport conformance: the same contract over sim, mp, and aio.

Every backend must move opaque frames point-to-point, preserve
per-worker ordering, time out cleanly, and report liveness — the
supervision layer is written against exactly this surface.  Real
backends (``mp``, ``aio``) spawn actual worker processes
whose serve loop answers ``ECHO`` frames before ``INIT``, so the suite
needs no training state.

The stream-reassembly section drives the socket backend through raw
client sockets to pin down partial reads (one byte per segment),
frames split across ``recv`` boundaries, coalesced back-to-back
frames, and short-write resumption on oversized sends.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.runtime.aio import AioTransport
from repro.runtime.framing import (
    HEADER_SIZE,
    HELLO_PAYLOAD,
    KIND_ACK,
    KIND_ECHO,
    KIND_ERROR,
    KIND_HELLO,
    KIND_INIT,
    KIND_READY,
    KIND_STOP,
    KIND_UPDATE,
    FrameAssembler,
    FrameError,
    NegotiationError,
    iter_chunk_frames,
    pack_ack,
    pack_frame,
    unpack_frame,
    unpack_header,
)
from repro.runtime.transport import (
    TRANSPORT_BACKENDS,
    TransportClosed,
    TransportTimeout,
    make_transport,
)

NUM_WORKERS = 2


def _echo_handler(worker_id):
    def handler(frame):
        kind, _, payload = unpack_frame(frame)
        if kind == KIND_STOP:
            return []
        return [pack_frame(KIND_ECHO, worker_id, payload)]

    return handler


def _build(backend):
    handlers = [_echo_handler(i) for i in range(NUM_WORKERS)]  # sim only
    return make_transport(backend, NUM_WORKERS, handlers=handlers)


def _shutdown(transport):
    for worker_id in range(transport.num_workers):
        try:
            if transport.alive(worker_id):
                transport.send(worker_id, pack_frame(KIND_STOP, 0))
        except TransportClosed:
            pass
    transport.close()


@pytest.fixture(params=TRANSPORT_BACKENDS)
def transport(request):
    t = _build(request.param)
    try:
        yield t
    finally:
        _shutdown(t)


class TestConformance:
    def test_name_matches_backend(self, transport):
        assert transport.name in TRANSPORT_BACKENDS
        assert transport.num_workers == NUM_WORKERS

    def test_echo_roundtrip_every_worker(self, transport):
        for worker_id in range(NUM_WORKERS):
            payload = b"ping-%d" % worker_id
            transport.send(worker_id, pack_frame(KIND_ECHO, 0, payload))
            kind, sender, got = unpack_frame(transport.recv(worker_id, 20.0))
            assert (kind, sender, got) == (KIND_ECHO, worker_id, payload)

    def test_per_worker_ordering_preserved(self, transport):
        for i in range(5):
            transport.send(0, pack_frame(KIND_ECHO, 0, b"seq-%d" % i))
        for i in range(5):
            _, _, payload = unpack_frame(transport.recv(0, 20.0))
            assert payload == b"seq-%d" % i

    def test_large_payload_survives(self, transport):
        # Bigger than any pipe buffer / single socket read.
        payload = bytes(range(256)) * 4096  # 1 MiB
        transport.send(1, pack_frame(KIND_ECHO, 0, payload))
        _, _, got = unpack_frame(transport.recv(1, 30.0))
        assert got == payload

    def test_recv_timeout_raises(self, transport):
        with pytest.raises(TransportTimeout):
            transport.recv(0, 0.05)

    def test_invalid_worker_id_rejected(self, transport):
        with pytest.raises(ValueError):
            transport.send(NUM_WORKERS, b"")
        with pytest.raises(ValueError):
            transport.recv(-1, 0.0)

    def test_alive_then_terminated(self, transport):
        assert transport.alive(0)
        assert transport.alive(1)
        transport.terminate(1)
        if transport.name == "mp":
            # Real processes take a moment to die.
            import time

            deadline = time.monotonic() + 10.0
            while transport.alive(1) and time.monotonic() < deadline:
                time.sleep(0.02)
        assert not transport.alive(1)
        # Worker 0 is unaffected.
        transport.send(0, pack_frame(KIND_ECHO, 0, b"still-here"))
        _, _, payload = unpack_frame(transport.recv(0, 20.0))
        assert payload == b"still-here"

    def test_send_after_terminate_fails(self, transport):
        transport.terminate(0)
        if transport.name == "mp":
            # The pipe stays writable until the process death is
            # observed; a recv sees the hangup.
            transport._procs[0].join(timeout=10.0)
            with pytest.raises((TransportClosed, TransportTimeout)):
                transport.recv(0, 0.2)
        else:
            with pytest.raises((TransportClosed, TransportTimeout)):
                transport.send(0, pack_frame(KIND_ECHO, 0, b"x"))
                transport.recv(0, 0.2)

    @pytest.mark.parametrize("backend", TRANSPORT_BACKENDS)
    def test_context_manager_closes(self, backend):
        with _build(backend) as t:
            t.send(0, pack_frame(KIND_ECHO, 0, b"cm"))
            _, _, payload = unpack_frame(t.recv(0, 20.0))
            assert payload == b"cm"
            _shutdown(t)


# ----------------------------------------------------------------------
# The HELLO check over every backend.
#
# Every spawned worker opens with the one HELLO every runtime peer
# sends; the driver checks it and answers with its own.  A peer whose
# HELLO excludes frame v2 or payload v2 is a structured construction
# failure, not a hang.  ``sim`` has no wire, so no HELLO.
# ----------------------------------------------------------------------
def _hello(frame_lo=2, frame_hi=2, payload_lo=2, payload_hi=2):
    return pack_frame(
        KIND_HELLO, 0,
        b"HELO" + bytes((frame_lo, frame_hi, payload_lo, payload_hi)),
    )


#: The one fleet left: every worker sends the default HELLO.
_FLEETS = ("v2-only",)


class TestVersionNegotiation:
    @pytest.mark.parametrize("fleet", _FLEETS)
    @pytest.mark.parametrize("backend", TRANSPORT_BACKENDS)
    def test_negotiation_matrix(self, backend, fleet):
        # The connection still moves frames after its handshake: the
        # serve loop passed the HELLO check and is back in dispatch.
        t = _build(backend)
        try:
            for worker_id in range(NUM_WORKERS):
                t.send(worker_id, pack_frame(KIND_ECHO, 0, b"post-hello"))
                kind, sender, payload = unpack_frame(t.recv(worker_id, 20.0))
                assert (kind, sender, payload) == (
                    KIND_ECHO, worker_id, b"post-hello"
                )
        finally:
            _shutdown(t)

    @pytest.mark.parametrize("backend", TRANSPORT_BACKENDS)
    def test_default_fleet_negotiates_v2(self, backend):
        # The default HELLO advertises frame v2 and payload v2 and
        # nothing else, and a default fleet passes the check: the
        # transport constructs and every worker is up.
        assert _hello() == pack_frame(KIND_HELLO, 0, HELLO_PAYLOAD)
        t = _build(backend)
        try:
            assert all(t.alive(w) for w in range(NUM_WORKERS))
        finally:
            _shutdown(t)

    def test_hello_less_opener_is_refused(self, raw_stream):
        t, sock = raw_stream
        sock.sendall(pack_frame(KIND_ACK, 0, pack_ack(0)))  # pre-v2 opener
        with pytest.raises(NegotiationError, match="not HELLO"):
            t.wait_connected(10.0)

    @pytest.mark.parametrize("axis, hello", [
        ("payload", _hello(payload_lo=1, payload_hi=1)),
        ("frame", _hello(frame_lo=1, frame_hi=1)),
    ], ids=["payload-v1", "frame-v1"])
    def test_v1_hello_is_refused(self, raw_stream, axis, hello):
        # A peer without payload v2 or frame v2 fails construction with
        # NegotiationError, promptly, and its socket is closed.
        t, sock = raw_stream
        start = time.monotonic()
        sock.sendall(hello)
        with pytest.raises(NegotiationError, match=f"no common {axis}"):
            t.wait_connected(10.0)
        assert time.monotonic() - start < 5.0
        assert sock.recv(64) == b""

    def test_malformed_hello_is_frame_error_not_negotiation(self, raw_stream):
        t, sock = raw_stream
        sock.sendall(pack_frame(KIND_HELLO, 0, HELLO_PAYLOAD + b"\x01"))
        with pytest.raises(FrameError, match="trailing") as err:
            t.wait_connected(10.0)
        assert not isinstance(err.value, NegotiationError)

    def test_negotiation_error_is_frame_error(self):
        assert issubclass(NegotiationError, FrameError)


class TestWireSettingsTraining:
    """Wire settings must not change the math.

    The same fixed-seed logistic regression must land on bit-identical
    parameters with plain frames and with entropy coding plus
    CHUNK/END-streamed frames — the decoded messages are the same, so
    theta cannot move.  The mp cell is the acceptance bar; the aio cell
    pins the socket backend.
    """

    @pytest.fixture(scope="class")
    def split(self):
        from repro.data import kdd10_like, train_test_split

        return train_test_split(kdd10_like(seed=7, scale=0.02), seed=7)

    #: Entropy coding and 4096-byte CHUNK/END streaming.
    STREAMED = dict(entropy_coding=True, chunk_bytes=4096)

    def _theta(self, split, backend, **cfg):
        from repro.runtime import RuntimeConfig
        from tests.test_runtime_train import make_trainer

        trainer = make_trainer(
            split, backend, runtime=RuntimeConfig(backend=backend, **cfg)
        )
        trainer.train(*split)
        return trainer.theta

    def test_streamed_trains_bit_identical_on_mp(self, split):
        streamed = self._theta(split, "mp", **self.STREAMED)
        np.testing.assert_array_equal(self._theta(split, "mp"), streamed)

    @pytest.mark.parametrize("backend", ["aio"])
    def test_streamed_matches_plain_sockets(self, split, backend):
        streamed = self._theta(split, backend, **self.STREAMED)
        np.testing.assert_array_equal(self._theta(split, backend), streamed)

    def test_sim_cluster_streams_chunked_updates(self):
        """An update larger than ``chunk_bytes`` broadcasts as a
        CHUNK/END stream straight into the in-process handler —
        regression for the sim frame dispatch forwarding chunk frames to
        ``WorkerRuntime.handle`` and crashing the run."""
        from repro.data import kdd10_like
        from repro.runtime import RuntimeCluster, RuntimeConfig
        from tests.test_runtime_faults import (
            NUM_WORKERS as SIM_WORKERS,
            make_bootstraps,
        )

        dataset = kdd10_like(seed=3, scale=0.02)

        def run(**cfg):
            config = RuntimeConfig(backend="sim", **cfg)
            with RuntimeCluster(make_bootstraps(dataset), config) as cluster:
                cluster.start_epoch(0)
                first = cluster.step(0, 0.1)
                update = next(
                    r.message for r in first.values() if r.has_batch
                )
                update_bytes = cluster.encode_update(update)
                acked = cluster.broadcast(0, 0.1, update_bytes)
                second = cluster.step(1, 0.1)
            losses = [
                (w, r.local_loss, r.gradient_nnz)
                for w, r in sorted(second.items())
            ]
            return update_bytes, acked, losses

        _, acked_plain, second_plain = run()
        update_bytes, acked, second = run(
            entropy_coding=True, chunk_bytes=256
        )
        # The update genuinely exceeded one chunk, so it streamed.
        assert len(update_bytes) > 256
        assert acked == acked_plain == list(range(SIM_WORKERS))
        # Post-update gradients are bit-identical across wire settings.
        assert second == second_plain


class _ScriptedEndpoint:
    """Minimal worker-side endpoint: recv pops a scripted frame list
    (None at the end plays the driver hang-up), send records."""

    def __init__(self, frames):
        self.frames = list(frames)
        self.sent = []

    def recv(self):
        if self.frames:
            return self.frames.pop(0)
        return None

    def send(self, frame):
        self.sent.append(bytes(frame))

    def close(self):
        pass


class TestServeChunkRecovery:
    """A chunked request that dies mid-sequence and is retried from
    seq 0 must reassemble cleanly in ``serve()`` — regression for the
    strict reassembler turning the retried stream's sequence reset
    into an ERROR frame and worker-process exit.  ``serve()`` hands
    every post-INIT frame to the real ``WorkerRuntime.handle_frame``;
    the stub only replaces what a reassembled stream is handed to."""

    def _stub_runtime(self, monkeypatch, calls):
        from repro.runtime import worker_main
        from repro.runtime.framing import ChunkReassembler
        from repro.runtime.worker_runtime import WorkerRuntime
        from repro.telemetry.metrics import WorkerMetrics

        class StubRuntime(WorkerRuntime):
            def __init__(self, bootstrap, *, spool):
                assert spool  # a spawned worker's replies carry metrics
                self.worker_id = 1
                self._reassembler = ChunkReassembler()
                self.metrics = WorkerMetrics()

            def handle(self, kind, payload):
                raise AssertionError(
                    f"frame kind {kind} must not reach handle()"
                )

            def handle_chunks(self, inner_kind, chunks):
                calls.append((inner_kind, b"".join(chunks)))
                return [pack_frame(KIND_ACK, 1, pack_ack(0))]

        class StubBootstrap:
            heartbeat_interval = 0.0
            heartbeat_jitter = 0.0
            seed = 0
            trace_dir = None
            run_id = None

            @staticmethod
            def from_bytes(payload):
                return StubBootstrap()

        monkeypatch.setattr(worker_main, "WorkerRuntime", StubRuntime)
        monkeypatch.setattr(worker_main, "WorkerBootstrap", StubBootstrap)
        return worker_main

    def test_retried_stream_reassembles_once(self, monkeypatch):
        calls = []
        worker_main = self._stub_runtime(monkeypatch, calls)
        body = bytes(range(256)) * 2
        stream = list(
            iter_chunk_frames(KIND_UPDATE, 0xFFFF, [body], chunk_bytes=64)
        )
        assert len(stream) >= 5  # several CHUNKs + END
        frames = [pack_frame(KIND_INIT, 0xFFFF, b"")]
        frames += stream[:3]  # the send died after three chunks...
        frames += stream      # ...and the supervisor re-sent it all
        endpoint = _ScriptedEndpoint(frames)
        worker_main.serve(endpoint, 1)
        assert calls == [(KIND_UPDATE, body)]
        kinds = [unpack_frame(f)[0] for f in endpoint.sent]
        assert kinds == [KIND_READY, KIND_ACK]
        assert KIND_ERROR not in kinds

    def test_stale_tail_then_fresh_stream(self, monkeypatch):
        calls = []
        worker_main = self._stub_runtime(monkeypatch, calls)
        body = bytes(range(256)) * 2
        stream = list(
            iter_chunk_frames(KIND_UPDATE, 0xFFFF, [body], chunk_bytes=64)
        )
        frames = [pack_frame(KIND_INIT, 0xFFFF, b"")]
        frames += stream[2:]  # stale mid-stream tail incl. its END
        frames += stream      # the full retried stream
        endpoint = _ScriptedEndpoint(frames)
        worker_main.serve(endpoint, 1)
        assert calls == [(KIND_UPDATE, body)]
        kinds = [unpack_frame(f)[0] for f in endpoint.sent]
        assert kinds == [KIND_READY, KIND_ACK]


# ----------------------------------------------------------------------
# Stream reassembly: partial reads, split frames, coalesced frames.
#
# The socket backend must tolerate every way TCP can slice a byte
# stream: one byte per segment, a frame split mid-header or
# mid-payload, and many frames arriving coalesced in one read.  A raw
# client socket (spawn_workers=False) plays the worker so the tests
# control the exact write boundaries.
# ----------------------------------------------------------------------
_HELLO = pack_frame(KIND_HELLO, 0, HELLO_PAYLOAD)


def _dribble(sock, chunks, delay=0.002):
    """Write ``chunks`` with pauses so each lands in its own segment."""
    for chunk in chunks:
        sock.sendall(chunk)
        if delay:
            time.sleep(delay)


@pytest.fixture(params=["aio"])
def raw_stream():
    """(transport, raw client socket) — no handshake performed yet."""
    t = AioTransport(1, spawn_workers=False)
    sock = socket.create_connection(("127.0.0.1", t.port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        yield t, sock
    finally:
        try:
            sock.close()
        except OSError:
            pass
        t.close()


class TestStreamReassembly:
    def test_one_byte_at_a_time(self, raw_stream):
        t, sock = raw_stream
        frame = pack_frame(KIND_ECHO, 0, b"dribbled-one-byte-at-a-time")
        data = _HELLO + frame
        writer = threading.Thread(
            target=_dribble,
            args=(sock, [data[i:i + 1] for i in range(len(data))]),
            kwargs={"delay": 0.0005},
        )
        writer.start()
        try:
            t.wait_connected(10.0)
            assert t.recv(0, 10.0) == frame
        finally:
            writer.join()

    def test_frame_split_across_recv_boundaries(self, raw_stream):
        t, sock = raw_stream
        sock.sendall(_HELLO)
        t.wait_connected(10.0)
        frame = pack_frame(KIND_ECHO, 0, b"p" * 4096)
        # Split mid-header, then mid-payload.
        sock.sendall(frame[: HEADER_SIZE // 2])
        with pytest.raises(TransportTimeout):
            t.recv(0, 0.05)  # only half a header: no frame surfaces
        sock.sendall(frame[HEADER_SIZE // 2: HEADER_SIZE + 100])
        with pytest.raises(TransportTimeout):
            t.recv(0, 0.05)  # header + partial payload: still no frame
        sock.sendall(frame[HEADER_SIZE + 100:])
        assert t.recv(0, 10.0) == frame

    def test_coalesced_back_to_back_frames(self, raw_stream):
        t, sock = raw_stream
        frames = [
            pack_frame(KIND_ECHO, 0, b"coalesced-%d" % i) for i in range(3)
        ]
        # Hello and all three frames in one write: one kernel buffer,
        # likely one recv_into on the driver side.
        sock.sendall(_HELLO + b"".join(frames))
        t.wait_connected(10.0)
        for frame in frames:
            assert t.recv(0, 10.0) == frame

    def test_large_send_resumes_after_short_writes(self, raw_stream):
        # Driver-side short-write handling: a frame far larger than the
        # socket buffer forces partial writes that must resume cleanly.
        t, sock = raw_stream
        sock.sendall(_HELLO)
        t.wait_connected(10.0)
        frame = pack_frame(KIND_ECHO, 0, bytes(range(256)) * 8192)  # 2 MiB
        writer = threading.Thread(target=t.send, args=(0, frame))
        writer.start()
        try:
            got = bytearray()
            sock.settimeout(10.0)
            # The driver's HELLO reply (its pinned choice) comes first.
            while not got.endswith(frame):
                chunk = sock.recv(65536)
                assert chunk, "driver closed mid-frame"
                got.extend(chunk)
        finally:
            writer.join()
        assert unpack_header(bytes(got[:HEADER_SIZE]))[0] == KIND_HELLO


class TestFrameAssembler:
    """Unit-level reassembly: the codec under the socket backends."""

    def test_byte_at_a_time_feed(self):
        frame = pack_frame(KIND_ECHO, 3, b"tiny")
        asm = FrameAssembler()
        for i, byte in enumerate(frame):
            assert asm.next_frame() is None, f"frame surfaced at byte {i}"
            asm.feed(bytes([byte]))
        assert asm.next_frame() == frame
        assert asm.next_frame() is None

    def test_coalesced_frames_in_one_feed(self):
        frames = [pack_frame(KIND_ECHO, i, b"x" * i) for i in range(5)]
        asm = FrameAssembler()
        asm.feed(b"".join(frames))
        for frame in frames:
            assert asm.next_frame() == frame
        assert asm.next_frame() is None

    def test_split_exactly_at_header_boundary(self):
        frame = pack_frame(KIND_ECHO, 0, b"payload-after-header")
        asm = FrameAssembler()
        asm.feed(frame[:HEADER_SIZE])
        assert asm.next_frame() is None
        asm.feed(frame[HEADER_SIZE:])
        assert asm.next_frame() == frame

    def test_grows_past_initial_capacity(self):
        frame = pack_frame(KIND_ECHO, 0, bytes(range(256)) * 2048)  # 512 KiB
        asm = FrameAssembler(initial_capacity=64)
        for i in range(0, len(frame), 4096):
            asm.feed(frame[i:i + 4096])
        assert asm.next_frame() == frame

    def test_writable_view_survives_growth(self):
        # Regression: growing must swap buffers, not resize in place —
        # resizing a bytearray with a live memoryview export raises
        # BufferError.
        asm = FrameAssembler(initial_capacity=32)
        view = asm.writable(16)
        bigger = asm.writable(1024)  # must not raise while `view` lives
        assert len(bigger) >= 1024
        del view

    def test_bad_magic_raises(self):
        asm = FrameAssembler()
        asm.feed(b"JUNK" + bytes(HEADER_SIZE - 4))
        with pytest.raises(FrameError):
            asm.next_frame()
