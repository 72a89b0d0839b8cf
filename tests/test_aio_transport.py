"""The event-driven backend's own guarantees, beyond conformance.

Conformance proves ``aio`` speaks the Transport contract; this file
pins the properties the backend was built for: bounded queues that
surface :class:`TransportBackpressure` (and become a *structured*
supervision error one layer up, on both ``mp`` and ``aio``),
arrival-order readiness hints, inbox pause/resume flow control, and
the seeded heartbeat jitter schedule.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.perf.soak_bench import SOAK_MODES, run_soak_bench
from repro.runtime.aio import AioTransport
from repro.runtime.framing import (
    HELLO_PAYLOAD,
    KIND_ECHO,
    KIND_HELLO,
    pack_frame,
    unpack_frame,
)
from repro.runtime.supervision import (
    RetryExhaustedError,
    SupervisionConfig,
    Supervisor,
)
from repro.runtime.transport import (
    MultiprocessTransport,
    TransportBackpressure,
)
from repro.runtime.worker_main import heartbeat_delays


def _client(port, worker_id):
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.sendall(pack_frame(KIND_HELLO, worker_id, HELLO_PAYLOAD))
    return sock


class TestAioBackpressure:
    def test_stuck_consumer_raises_backpressure(self):
        # A client that never reads: the kernel buffers fill, the
        # bounded outbox fills, and send() must fail loudly instead of
        # buffering without limit.
        transport = AioTransport(
            1, spawn_workers=False, max_outbox_bytes=256 * 1024
        )
        transport.SEND_TIMEOUT = 0.2
        sock = _client(transport.port, 0)
        try:
            transport.wait_connected(10.0)
            frame = pack_frame(KIND_ECHO, 0, bytes(512 * 1024))
            with pytest.raises(TransportBackpressure):
                for _ in range(100):
                    transport.send(0, frame)
        finally:
            sock.close()
            transport.close()

    def test_backpressure_surfaces_as_structured_supervision_error(self):
        transport = AioTransport(
            1, spawn_workers=False, max_outbox_bytes=256 * 1024
        )
        transport.SEND_TIMEOUT = 0.2
        sock = _client(transport.port, 0)
        try:
            transport.wait_connected(10.0)
            frame = pack_frame(KIND_ECHO, 0, bytes(512 * 1024))
            # Jam the outbox first (the client never reads).
            with pytest.raises(TransportBackpressure):
                for _ in range(100):
                    transport.send(0, frame)
            supervisor = Supervisor(
                transport,
                SupervisionConfig(
                    message_timeout=0.2,
                    max_retries=1,
                    backoff_base=0.0,
                    backoff_jitter=0.0,
                ),
            )
            with pytest.raises(RetryExhaustedError) as excinfo:
                supervisor.request(
                    0, frame, phase="step", expect_kind=KIND_ECHO
                )
            err = excinfo.value
            assert err.worker_id == 0
            assert err.phase == "step"
            assert isinstance(err.cause, TransportBackpressure)
        finally:
            sock.close()
            transport.close()


class TestMpBackpressure:
    def test_full_pipe_surfaces_as_structured_supervision_error(self):
        # The worker echoes every frame; nobody drains the replies, so
        # the worker eventually blocks writing and stops reading, the
        # driver-side pipe fills, and send() must raise instead of
        # blocking forever.  Frames stay under PIPE_BUF so a positive
        # writability poll means the whole frame fits.
        transport = MultiprocessTransport(1)
        transport.SEND_TIMEOUT = 0.2
        try:
            frame = pack_frame(KIND_ECHO, 0, bytes(2048))
            # Warm up: one full round trip so a later non-writable pipe
            # means a genuinely blocked worker, not a slow spawn.
            transport.send(0, frame)
            kind, _, _ = unpack_frame(transport.recv(0, 20.0))
            assert kind == KIND_ECHO
            with pytest.raises(TransportBackpressure):
                for _ in range(5000):
                    transport.send(0, frame)
            # The jam is stable: the worker is blocked writing replies
            # nobody drains, so the next send fails the same way.
            with pytest.raises(TransportBackpressure):
                transport.send(0, frame)
            supervisor = Supervisor(
                transport,
                SupervisionConfig(
                    message_timeout=0.2,
                    max_retries=1,
                    backoff_base=0.0,
                    backoff_jitter=0.0,
                ),
            )
            with pytest.raises(RetryExhaustedError) as excinfo:
                supervisor.request(
                    0, frame, phase="step", expect_kind=KIND_ECHO
                )
            assert isinstance(excinfo.value.cause, TransportBackpressure)
        finally:
            transport.close()


class TestReadyWorkers:
    def test_reports_arrival_order_not_id_order(self):
        transport = AioTransport(2, spawn_workers=False)
        socks = [_client(transport.port, w) for w in range(2)]
        try:
            transport.wait_connected(10.0)
            assert transport.ready_workers() == []
            # Worker 1 replies first; the hint must say so while
            # worker 0 has sent nothing.
            socks[1].sendall(pack_frame(KIND_ECHO, 1, b"early"))
            ready = transport.ready_workers(timeout=5.0)
            assert ready == [1]
            assert transport.recv(1, 1.0) == pack_frame(
                KIND_ECHO, 1, b"early"
            )
            assert transport.ready_workers() == []
        finally:
            for sock in socks:
                sock.close()
            transport.close()

    def test_candidates_filter_and_timeout(self):
        transport = AioTransport(2, spawn_workers=False)
        socks = [_client(transport.port, w) for w in range(2)]
        try:
            transport.wait_connected(10.0)
            socks[1].sendall(pack_frame(KIND_ECHO, 1, b"x"))
            deadline_ready = transport.ready_workers([1], timeout=5.0)
            assert deadline_ready == [1]
            # Worker 0 stays silent: a bounded wait returns empty.
            start = time.monotonic()
            assert transport.ready_workers([0], timeout=0.1) == []
            assert time.monotonic() - start < 2.0
        finally:
            for sock in socks:
                sock.close()
            transport.close()

    def test_blocking_wait_wakes_on_late_arrival(self):
        transport = AioTransport(1, spawn_workers=False)
        sock = _client(transport.port, 0)
        try:
            transport.wait_connected(10.0)

            def late_send():
                time.sleep(0.1)
                sock.sendall(pack_frame(KIND_ECHO, 0, b"late"))

            writer = threading.Thread(target=late_send)
            writer.start()
            try:
                assert transport.ready_workers(timeout=5.0) == [0]
            finally:
                writer.join()
        finally:
            sock.close()
            transport.close()


class TestInboxFlowControl:
    def test_paused_reads_resume_without_losing_frames(self):
        # Inbox bound of 4, 32 frames in flight: reads pause (flow
        # control pushes back on the sender) and resume as the caller
        # drains — nothing is dropped, order is preserved.
        transport = AioTransport(1, spawn_workers=False, max_inbox_frames=4)
        sock = _client(transport.port, 0)
        try:
            transport.wait_connected(10.0)
            frames = [
                pack_frame(KIND_ECHO, 0, b"flood-%d" % i) for i in range(32)
            ]
            sock.sendall(b"".join(frames))
            for frame in frames:
                assert transport.recv(0, 10.0) == frame
        finally:
            sock.close()
            transport.close()


class TestHeartbeatJitter:
    def test_schedule_is_deterministic_under_fixed_seed(self):
        a = heartbeat_delays(1.0, 0.2, seed=7, worker_id=3)
        b = heartbeat_delays(1.0, 0.2, seed=7, worker_id=3)
        assert [next(a) for _ in range(10)] == [next(b) for _ in range(10)]

    def test_workers_get_distinct_phases(self):
        phases = {
            next(heartbeat_delays(1.0, 0.2, seed=7, worker_id=w))
            for w in range(16)
        }
        assert len(phases) == 16  # no two workers beat in lockstep

    def test_delays_stay_within_jitter_bounds(self):
        interval, jitter = 0.5, 0.2
        gen = heartbeat_delays(interval, jitter, seed=1, worker_id=0)
        phase = next(gen)
        assert 0.0 <= phase < interval
        for _ in range(100):
            delay = next(gen)
            assert interval * (1 - jitter / 2) <= delay
            assert delay <= interval * (1 + jitter / 2)

    def test_zero_jitter_keeps_exact_interval(self):
        gen = heartbeat_delays(0.25, 0.0, seed=3, worker_id=2)
        next(gen)  # phase is still randomised
        assert [next(gen) for _ in range(5)] == [0.25] * 5

    def test_config_plumbing_defaults(self):
        assert SupervisionConfig().heartbeat_jitter == 0.2
        with pytest.raises(ValueError):
            SupervisionConfig(heartbeat_jitter=1.5)


class TestSoakBenchSmoke:
    def test_all_modes_run_and_report(self):
        results = run_soak_bench(worker_counts=[4], rounds=2)
        assert [r.name for r in results] == [
            f"soak/{mode}/w4" for mode in SOAK_MODES
        ]
        for result in results:
            record = result.to_json()
            assert result.elements == 8  # 4 workers × 2 rounds
            assert record["messages_per_s"] > 0
            assert 0 < record["p50_ms"] <= record["p99_ms"]
            assert record["workers"] == 4
            assert record["rounds"] == 2

    def test_delay_schedule_is_seeded(self):
        from repro.perf.soak_bench import WorkerSwarm

        a = WorkerSwarm("127.0.0.1", 1, 2, b"", seed=5)
        b = WorkerSwarm("127.0.0.1", 1, 2, b"", seed=5)
        delays_a = [a._delay(0) for _ in range(20)]
        delays_b = [b._delay(0) for _ in range(20)]
        assert delays_a == delays_b
        assert delays_a != [a._delay(1) for _ in range(20)]
