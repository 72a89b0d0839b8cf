"""Frame codec unit tests: pack/unpack roundtrips and rejection paths."""

import pytest

from repro.runtime.framing import (
    FRAME_MAGIC,
    HEADER_SIZE,
    HELLO_PAYLOAD,
    KIND_ACK,
    KIND_GRAD,
    KIND_NAMES,
    KIND_STEP,
    FrameError,
    NegotiationError,
    check_hello,
    pack_ack,
    pack_frame,
    pack_grad_header,
    pack_metrics,
    pack_ops,
    pack_step,
    pack_update_header,
    unpack_ack,
    unpack_frame,
    unpack_grad,
    unpack_header,
    unpack_step,
    unpack_update,
)


class TestFrameRoundtrip:
    def test_roundtrip_all_kinds(self):
        for kind in KIND_NAMES:
            frame = pack_frame(kind, 7, b"payload")
            got_kind, sender, payload = unpack_frame(frame)
            assert (got_kind, sender, payload) == (kind, 7, b"payload")

    def test_empty_payload(self):
        frame = pack_frame(KIND_ACK, 0)
        kind, sender, payload = unpack_frame(frame)
        assert (kind, sender, payload) == (KIND_ACK, 0, b"")
        assert len(frame) == HEADER_SIZE

    def test_header_is_little_endian_and_magic_first(self):
        frame = pack_frame(KIND_STEP, 0x0102, b"x")
        assert frame[:4] == FRAME_MAGIC
        # sender u16 little-endian: low byte first
        assert frame[6:8] == bytes([0x02, 0x01])

    def test_unknown_kind_rejected_on_pack_and_unpack(self):
        with pytest.raises(FrameError):
            pack_frame(0, 0, b"")
        bad = bytearray(pack_frame(KIND_ACK, 0, b""))
        bad[5] = 250  # kind byte
        with pytest.raises(FrameError, match="unknown frame kind"):
            unpack_header(bytes(bad))

    def test_bad_magic_rejected(self):
        frame = bytearray(pack_frame(KIND_ACK, 0, b""))
        frame[0] = ord("X")
        with pytest.raises(FrameError, match="magic"):
            unpack_frame(bytes(frame))

    def test_short_header_rejected(self):
        with pytest.raises(FrameError, match="short"):
            unpack_header(b"SKRT")

    def test_length_mismatch_rejected(self):
        frame = pack_frame(KIND_ACK, 0, b"abc")
        with pytest.raises(FrameError, match="length mismatch"):
            unpack_frame(frame + b"extra")
        with pytest.raises(FrameError, match="length mismatch"):
            unpack_frame(frame[:-1])

    def test_corrupt_length_field_rejected_not_allocated(self):
        frame = bytearray(pack_frame(KIND_ACK, 0, b""))
        frame[8:16] = (1 << 62).to_bytes(8, "little")
        with pytest.raises(FrameError, match="exceeds limit"):
            unpack_header(bytes(frame))


class TestTypedPayloads:
    def test_step_roundtrip(self):
        assert unpack_step(pack_step(41, 0.125)) == (41, 0.125, None, {})
        with_ops = pack_step(41, 0.125) + pack_ops(7, pack_metrics({"a": 3}))
        assert unpack_step(with_ops) == (41, 0.125, 7, {"a": 3})
        with pytest.raises(FrameError, match="short STEP"):
            unpack_step(b"\x00")
        with pytest.raises(FrameError, match="trailing bytes"):
            unpack_step(pack_step(41, 0.125) + b"junk")

    def test_grad_roundtrip_with_message_bytes(self):
        body = pack_grad_header(9, True, 0.5, 0.01, 0.002, 1234) + b"WIRE"
        rid, has_batch, loss, comp, enc, nnz, data = unpack_grad(body)
        assert (rid, has_batch, nnz, data) == (9, True, 1234, b"WIRE")
        assert (loss, comp, enc) == (0.5, 0.01, 0.002)
        with pytest.raises(FrameError, match="short GRAD"):
            unpack_grad(b"tiny")

    def test_update_roundtrip(self):
        body = pack_update_header(3, 0.01) + b"AGG"
        assert unpack_update(body) == (3, 0.01, b"AGG")
        with pytest.raises(FrameError, match="short UPDATE"):
            unpack_update(b"")

    def test_ack_roundtrip(self):
        assert unpack_ack(pack_ack(77)) == 77
        with pytest.raises(FrameError):
            unpack_ack(b"\x01\x02")


class TestHelloCheck:
    """``check_hello`` is the whole HELLO handshake: every peer sends
    the one constant payload and refuses anything else."""

    @staticmethod
    def _hello(frame_lo=2, frame_hi=2, payload_lo=2, payload_hi=2):
        return b"HELO" + bytes((frame_lo, frame_hi, payload_lo, payload_hi))

    def test_constant_payload_layout(self):
        assert HELLO_PAYLOAD == self._hello()
        check_hello(HELLO_PAYLOAD)

    def test_ranges_containing_v2_pass(self):
        check_hello(self._hello(1, 3, 2, 4))

    @pytest.mark.parametrize("payload", [b"", b"HELO", HELLO_PAYLOAD[:-1]])
    def test_short_payload_is_frame_error(self, payload):
        with pytest.raises(FrameError, match="short HELLO") as err:
            check_hello(payload)
        assert not isinstance(err.value, NegotiationError)

    def test_bad_magic_is_frame_error(self):
        with pytest.raises(FrameError, match="magic") as err:
            check_hello(b"HELX" + HELLO_PAYLOAD[4:])
        assert not isinstance(err.value, NegotiationError)

    def test_trailing_bytes_are_frame_error(self):
        # The retired ops TLV extension, among any other trailer.
        with pytest.raises(FrameError, match="trailing") as err:
            check_hello(HELLO_PAYLOAD + b"\x01\x01\x01")
        assert not isinstance(err.value, NegotiationError)

    @pytest.mark.parametrize("axis, ranges", [
        ("frame", (1, 1, 2, 2)),
        ("frame", (3, 4, 2, 2)),
        ("payload", (2, 2, 1, 1)),
        ("payload", (1, 2, 3, 3)),
    ])
    def test_range_without_v2_is_negotiation_error(self, axis, ranges):
        with pytest.raises(NegotiationError, match=f"no common {axis} version"):
            check_hello(self._hello(*ranges))


class TestSessionFrameStream:
    """Pin the frames one fixed-seed ``sim`` session puts on the wire.

    A 2-worker cluster runs three rounds with entropy coding and
    4096-byte chunks, so every broadcast UPDATE streams as CHUNK/END.
    A wrapper over the transport records each frame sent and received
    as ``(direction, kind, header version, sender, payload length)``
    and, per logical GRAD/UPDATE body (reassembled when streamed), the
    sha256 of its serialized-message section.  GRAD timing floats and
    span ids are fixed-width, so the lengths are deterministic; the
    digests below change only when a frame or a message byte does.
    The traced run opens a span around the rounds, so STEP and UPDATE
    carry the driver's span context.
    """

    #: sha256 of the recorded frame rows, untraced and traced.
    FRAMES = {
        False: "cb59b367f735280029a1a2ac5368f1b5ba4906ade8abc77441959417cbbe3ddf",
        True: "20d975eb320e1d1676cf030c0d26b82c8992a4c6801240e844ed290c93f93e12",
    }
    #: sha256 of the message-section digests: spans never reach them.
    MESSAGES = "20e7d8fd2f0b1e7fb38c9e7a2c441dc2fd4e24f559836e2e47d455d257fcafba"

    @staticmethod
    def _record(traced, tmp_path):
        import hashlib

        from repro import telemetry
        from repro.core import SketchMLCompressor, SketchMLConfig
        from repro.data import kdd10_like
        from repro.distributed.driver import aggregate_sparse_gradients
        from repro.runtime import RuntimeCluster, RuntimeConfig
        from repro.runtime.framing import (
            GRAD_HEADER_SIZE,
            KIND_CHUNK,
            KIND_END,
            KIND_UPDATE,
            UPDATE_HEADER_SIZE,
            ChunkReassembler,
            unpack_ops_prefix,
        )
        from repro.telemetry.recorder import TraceRecorder
        from tests.test_runtime_faults import SEED, make_bootstraps

        frames, messages = [], []
        streams = {}

        def note(direction, worker_id, frame):
            kind, sender, payload = unpack_frame(frame)
            frames.append(
                (direction, KIND_NAMES[kind], frame[4], sender, len(payload))
            )
            if kind == KIND_CHUNK:
                streams.setdefault(
                    (direction, worker_id), ChunkReassembler()
                ).feed(payload)
                return
            if kind == KIND_END:
                kind, chunks = streams[(direction, worker_id)].finish(payload)
                payload = b"".join(chunks)
            if kind not in (KIND_GRAD, KIND_UPDATE):
                return
            header = GRAD_HEADER_SIZE if kind == KIND_GRAD else UPDATE_HEADER_SIZE
            _, _, message = unpack_ops_prefix(payload[header:])
            if message:
                messages.append((
                    direction, KIND_NAMES[kind],
                    hashlib.sha256(message).hexdigest(),
                ))

        dataset = kdd10_like(seed=SEED, scale=0.1)
        config = RuntimeConfig(
            backend="sim", entropy_coding=True, chunk_bytes=4096
        )
        driver_codec = SketchMLCompressor(SketchMLConfig.full(seed=SEED))
        # No metrics hub, whatever earlier tests installed; in-process
        # workers never spool, so their replies carry no ops block.
        previous_hub = telemetry.set_metrics_hub(None)
        previous = telemetry.set_recorder(
            TraceRecorder(str(tmp_path / "session.jsonl")) if traced else None
        )
        try:
            with RuntimeCluster(make_bootstraps(dataset), config) as cluster:
                transport = cluster.transport
                send, recv = transport.send, transport.recv

                def recording_send(worker_id, frame):
                    note("send", worker_id, frame)
                    send(worker_id, frame)

                def recording_recv(worker_id, timeout):
                    frame = recv(worker_id, timeout)
                    note("recv", worker_id, frame)
                    return frame

                transport.send = recording_send
                transport.recv = recording_recv
                with telemetry.span("test.session"):
                    cluster.start_epoch(0)
                    for round_id in range(3):
                        results = cluster.step(round_id, 0.1)
                        grads = [
                            driver_codec.decompress(r.message)
                            for r in results.values() if r.has_batch
                        ]
                        keys, values = aggregate_sparse_gradients(grads)
                        update = cluster.encode_update(driver_codec.compress(
                            keys, values, dataset.num_features
                        ))
                        assert len(update) > config.chunk_bytes
                        cluster.broadcast(round_id, 0.1, update)
        finally:
            recorder = telemetry.set_recorder(previous)
            if recorder is not None:
                recorder.close()
            telemetry.set_metrics_hub(previous_hub)
        return frames, messages

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_frame_stream_is_pinned(self, traced, tmp_path):
        import hashlib

        frames, messages = self._record(traced, tmp_path)
        # Header versions are per-kind stamps: CHUNK/END carry 2, every
        # other kind 1; the UPDATEs streamed.
        kinds = {kind for _, kind, _, _, _ in frames}
        assert {"chunk", "end", "step", "grad", "ack"} <= kinds
        for _, kind, version, _, _ in frames:
            assert version == (2 if kind in ("chunk", "end") else 1)
        # In-process workers do not spool: every ACK is the bare 4 bytes.
        assert {n for _, kind, _, _, n in frames if kind == "ack"} == {4}
        def digest(rows):
            return hashlib.sha256(repr(rows).encode()).hexdigest()

        assert digest(messages) == self.MESSAGES
        assert digest(frames) == self.FRAMES[traced]
