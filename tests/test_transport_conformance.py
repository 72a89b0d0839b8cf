"""Transport conformance: the same contract over sim, mp, tcp, and aio.

Every backend must move opaque frames point-to-point, preserve
per-worker ordering, time out cleanly, and report liveness — the
supervision layer is written against exactly this surface.  Real
backends (``mp``, ``tcp``, ``aio``) spawn actual worker processes
whose serve loop answers ``ECHO`` frames before ``INIT``, so the suite
needs no training state.

The stream-reassembly section drives the socket backends through raw
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
    DEFAULT_CAPS,
    HEADER_SIZE,
    KIND_ACK,
    KIND_ECHO,
    KIND_ERROR,
    KIND_INIT,
    KIND_READY,
    KIND_STOP,
    KIND_UPDATE,
    V1_CAPS,
    FrameAssembler,
    FrameError,
    NegotiationError,
    ProtocolCaps,
    iter_chunk_frames,
    pack_ack,
    pack_frame,
    unpack_frame,
)
from repro.runtime.transport import (
    TRANSPORT_BACKENDS,
    TcpTransport,
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
    if backend == "sim":
        handlers = [_echo_handler(i) for i in range(NUM_WORKERS)]
        return make_transport("sim", NUM_WORKERS, handlers=handlers)
    return make_transport(backend, NUM_WORKERS)


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
        if transport.name in ("mp", "tcp"):
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
# Version negotiation: the HELLO exchange over every backend.
#
# A v2-capable worker opens with a HELLO carrying its supported
# ranges; the driver pins the highest mutually supported pair and
# replies.  A v1-capped worker emits the exact pre-v2 byte stream
# (silence on mp, the legacy ACK hello on tcp/aio) and is pinned to
# (1, 1) without any extra traffic.  Mixed fleets therefore negotiate
# per connection, and a fleet with no common version is a structured
# construction failure, not a hang.
# ----------------------------------------------------------------------
V2_ONLY_CAPS = ProtocolCaps(
    frame_min=2, frame_max=2, payload_min=2, payload_max=2
)

_FLEETS = {
    "v1-only": ({0: V1_CAPS, 1: V1_CAPS}, {0: (1, 1), 1: (1, 1)}),
    "v2-only": ({0: DEFAULT_CAPS, 1: DEFAULT_CAPS}, {0: (2, 2), 1: (2, 2)}),
    "mixed": ({0: V1_CAPS, 1: DEFAULT_CAPS}, {0: (1, 1), 1: (2, 2)}),
}


def _build_with_caps(backend, worker_caps, driver_caps=None):
    kwargs = {"driver_caps": driver_caps, "worker_caps": worker_caps}
    if backend == "sim":
        handlers = [_echo_handler(i) for i in range(NUM_WORKERS)]
        return make_transport("sim", NUM_WORKERS, handlers=handlers, **kwargs)
    return make_transport(backend, NUM_WORKERS, **kwargs)


class TestVersionNegotiation:
    @pytest.mark.parametrize("fleet", sorted(_FLEETS))
    @pytest.mark.parametrize("backend", TRANSPORT_BACKENDS)
    def test_negotiation_matrix(self, backend, fleet):
        worker_caps, expected = _FLEETS[fleet]
        t = _build_with_caps(backend, worker_caps)
        try:
            assert dict(t.negotiated) == expected
            for worker_id in range(NUM_WORKERS):
                assert t.negotiated_versions(worker_id) == expected[worker_id]
            # The negotiated connection still moves frames: the serve
            # loop answered the HELLO exchange and is back in dispatch.
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
        t = _build(backend)
        try:
            assert dict(t.negotiated) == {0: (2, 2), 1: (2, 2)}
        finally:
            _shutdown(t)

    @pytest.mark.parametrize("backend", TRANSPORT_BACKENDS)
    def test_no_common_version_is_structured_failure(self, backend):
        # A v1-pinned driver cannot speak to a v2-only worker: the
        # transport must fail construction with NegotiationError (a
        # FrameError), never hang or train on garbage.
        with pytest.raises(NegotiationError, match="no common"):
            t = _build_with_caps(
                backend,
                {0: V2_ONLY_CAPS, 1: V1_CAPS},
                driver_caps=V1_CAPS,
            )
            _shutdown(t)  # pragma: no cover - construction must raise

    def test_negotiation_error_is_frame_error(self):
        assert issubclass(NegotiationError, FrameError)


class TestNegotiatedTraining:
    """Fleet composition must not change the math.

    The same fixed-seed logistic regression must land on bit-identical
    parameters whether the fleet is all-v1, all-v2 (with entropy
    coding and streamed frames), or mixed — the v2 payload carries the
    identical message, so theta cannot move.  The mp cell is the
    acceptance bar; tcp and aio pin the socket backends.
    """

    @pytest.fixture(scope="class")
    def split(self):
        from repro.data import kdd10_like, train_test_split

        return train_test_split(kdd10_like(seed=7, scale=0.02), seed=7)

    def _theta(self, split, backend, worker_caps=None, **cfg):
        from repro.runtime import RuntimeConfig
        from tests.test_runtime_train import make_trainer

        trainer = make_trainer(
            split,
            backend,
            runtime=RuntimeConfig(
                backend=backend, worker_caps=worker_caps, **cfg
            ),
        )
        trainer.train(*split)
        return trainer.theta

    def test_mixed_fleet_trains_bit_identical_on_mp(self, split):
        from tests.test_runtime_train import NUM_WORKERS as TRAIN_WORKERS

        all_v1 = self._theta(
            split, "mp",
            worker_caps={w: V1_CAPS for w in range(TRAIN_WORKERS)},
        )
        mixed = self._theta(
            split, "mp",
            worker_caps={0: V1_CAPS},  # the rest default to v2
            entropy_coding=True,
            chunk_bytes=4096,
        )
        all_v2 = self._theta(
            split, "mp", entropy_coding=True, chunk_bytes=4096
        )
        np.testing.assert_array_equal(all_v1, mixed)
        np.testing.assert_array_equal(all_v1, all_v2)

    def test_sim_cluster_streams_chunked_updates(self):
        """The default sim fleet negotiates frame v2, so an update
        larger than ``chunk_bytes`` broadcasts as a CHUNK/END stream
        straight into the in-process handler — regression for
        ``_sim_handler`` forwarding chunk frames to
        ``WorkerRuntime.handle`` and crashing the run."""
        from repro.core.serialization import serialize_message
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
                # The update was decoded from the worker's negotiated
                # payload version; a v2 decode carries no bucket splits,
                # so let broadcast serialize it per peer version.
                update_bytes = serialize_message(
                    update, version=2, entropy=True
                )
                acked = cluster.broadcast(0, 0.1, message=update)
                second = cluster.step(1, 0.1)
            losses = [
                (w, r.local_loss, r.gradient_nnz)
                for w, r in sorted(second.items())
            ]
            return update_bytes, acked, losses

        v1_caps = {w: V1_CAPS for w in range(SIM_WORKERS)}
        _, acked_v1, second_v1 = run(worker_caps=v1_caps)
        update_bytes, acked, second = run(
            entropy_coding=True, chunk_bytes=256
        )
        # The update genuinely exceeded one chunk, so it streamed.
        assert len(update_bytes) > 256
        assert acked == acked_v1 == list(range(SIM_WORKERS))
        # Post-update gradients are bit-identical across fleets.
        assert second == second_v1

    @pytest.mark.parametrize("backend", ["tcp", "aio"])
    def test_mixed_fleet_matches_v1_fleet_on_sockets(self, split, backend):
        from tests.test_runtime_train import NUM_WORKERS as TRAIN_WORKERS

        all_v1 = self._theta(
            split, backend,
            worker_caps={w: V1_CAPS for w in range(TRAIN_WORKERS)},
        )
        mixed = self._theta(
            split, backend,
            worker_caps={0: V1_CAPS},
            entropy_coding=True,
            chunk_bytes=4096,
        )
        np.testing.assert_array_equal(all_v1, mixed)


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
    into an ERROR frame and worker-process exit."""

    def _stub_runtime(self, monkeypatch, calls):
        from repro.runtime import worker_main

        class StubRuntime:
            def __init__(self, bootstrap):
                pass

            def set_wire(self, frame_v, payload_v, ops=False):
                pass

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
        worker_main.serve(
            endpoint, 1, frame_version=2, payload_version=2
        )
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
        worker_main.serve(
            endpoint, 1, frame_version=2, payload_version=2
        )
        assert calls == [(KIND_UPDATE, body)]
        kinds = [unpack_frame(f)[0] for f in endpoint.sent]
        assert kinds == [KIND_READY, KIND_ACK]


# ----------------------------------------------------------------------
# Stream reassembly: partial reads, split frames, coalesced frames.
#
# The socket backends must tolerate every way TCP can slice a byte
# stream: one byte per segment, a frame split mid-header or
# mid-payload, and many frames arriving coalesced in one read.  A raw
# client socket (spawn_workers=False) plays the worker so the tests
# control the exact write boundaries.
# ----------------------------------------------------------------------
_HELLO = pack_frame(KIND_ACK, 0, pack_ack(0))


def _dribble(sock, chunks, delay=0.002):
    """Write ``chunks`` with pauses so each lands in its own segment."""
    for chunk in chunks:
        sock.sendall(chunk)
        if delay:
            time.sleep(delay)


@pytest.fixture(params=["tcp", "aio"])
def raw_stream(request):
    """(transport, raw client socket) — no handshake performed yet."""
    if request.param == "tcp":
        t = TcpTransport(1, spawn_workers=False)
    else:
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


def _handshake(t):
    if t.name == "tcp":
        t.accept_connections(timeout=10.0)
    else:
        t.wait_connected(10.0)


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
            _handshake(t)
            assert t.recv(0, 10.0) == frame
        finally:
            writer.join()

    def test_frame_split_across_recv_boundaries(self, raw_stream):
        t, sock = raw_stream
        sock.sendall(_HELLO)
        _handshake(t)
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
        _handshake(t)
        for frame in frames:
            assert t.recv(0, 10.0) == frame

    def test_large_send_resumes_after_short_writes(self, raw_stream):
        # Driver-side short-write handling: a frame far larger than the
        # socket buffer forces partial writes that must resume cleanly.
        t, sock = raw_stream
        sock.sendall(_HELLO)
        _handshake(t)
        frame = pack_frame(KIND_ECHO, 0, bytes(range(256)) * 8192)  # 2 MiB
        writer = threading.Thread(target=t.send, args=(0, frame))
        writer.start()
        try:
            got = bytearray()
            sock.settimeout(10.0)
            while len(got) < len(frame):
                chunk = sock.recv(65536)
                assert chunk, "driver closed mid-frame"
                got.extend(chunk)
        finally:
            writer.join()
        assert bytes(got) == frame


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
