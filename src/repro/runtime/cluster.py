"""Driver-side cluster orchestration over a supervised transport.

A :class:`RuntimeCluster` owns the full driver view of one training
run: it boots ``W`` workers on the configured backend (in-process
handlers for ``sim``, spawned OS processes for ``mp`` / ``tcp``),
wraps the transport in seeded fault injection when asked, and runs the
per-round protocol::

    EPOCH  -> ack            (reshuffle partitions)
    STEP   -> GRAD           (compute + compress, real wire bytes back)
    UPDATE -> ack            (apply broadcast aggregate to replicas)

Every exchange goes through the :class:`~repro.runtime.supervision.
Supervisor`, so timeouts, retries, heartbeat loss, and the
fail-fast/drop policies apply uniformly to all backends.  A round's
results only include workers that answered; under the ``drop`` policy
the caller aggregates over survivors and the per-key mean in
:func:`repro.distributed.driver.aggregate_sparse_gradients` re-weights
the update automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from .. import telemetry
from ..core.serialization import (
    deserialize_message,
    deserialize_message_chunks,
    serialize_message,
)
from .faults import FaultConfig, FaultSchedule, FaultyTransport
from .framing import (
    DEFAULT_CHUNK_BYTES,
    GRAD_HEADER_SIZE,
    KIND_ACK,
    KIND_CHUNK,
    KIND_ECHO,
    KIND_END,
    KIND_EPOCH,
    KIND_GRAD,
    KIND_HEARTBEAT,
    KIND_INIT,
    KIND_READY,
    KIND_RESHARD,
    KIND_STEP,
    KIND_STOP,
    KIND_SYNC,
    KIND_UPDATE,
    ChunkReassembler,
    FrameError,
    ProtocolCaps,
    iter_chunk_frames,
    pack_ack,
    pack_frame,
    pack_ops,
    pack_step,
    pack_update_header,
    split_chunk_prefix,
    split_ops_prefix_chunks,
    unpack_ack,
    unpack_frame,
    unpack_grad,
    unpack_ops_prefix,
)
from .supervision import SupervisionConfig, Supervisor
from .transport import (
    TRANSPORT_BACKENDS,
    SimTransport,
    Transport,
    TransportError,
    make_transport,
)
from .worker_runtime import WorkerBootstrap, WorkerRuntime

__all__ = ["RuntimeConfig", "RoundResult", "ClusterError", "RuntimeCluster"]

#: Driver frames carry this sender id (workers are 0..W-1).
DRIVER_SENDER = 0xFFFF


class ClusterError(RuntimeError):
    """The cluster as a whole cannot make progress (e.g. no workers left)."""


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution-backend selection + supervision + fault knobs.

    This is runtime policy, deliberately separate from
    :class:`~repro.core.config.SketchMLConfig` (codec policy): the
    same compression config must produce identical bytes on every
    backend.

    Attributes:
        backend: one of ``sim`` / ``mp`` / ``tcp`` / ``aio``.
        supervision: retry/timeout/heartbeat policy.
        faults: optional seeded probabilistic fault rates.
        fault_schedule: optional exact fault triggers (tests).
        tcp_host: bind/connect host for the ``tcp`` / ``aio`` backends.
        driver_caps: protocol versions the driver advertises in the
            HELLO exchange (``None`` → everything this build speaks).
        worker_caps: per-worker capability overrides — the conformance
            tier pins mixed v1/v2 fleets with this (``None`` → every
            worker advertises everything).
        entropy_coding: request dense radix coding of bucket-index
            streams on payload-v2 connections (``docs/wire.md``);
            v1-pinned peers are unaffected.
        chunk_bytes: data bytes per ``CHUNK`` frame when a body larger
            than this streams over a frame-v2 connection.
    """

    backend: str = "sim"
    supervision: SupervisionConfig = field(default_factory=SupervisionConfig)
    faults: Optional[FaultConfig] = None
    fault_schedule: Optional[FaultSchedule] = None
    tcp_host: str = "127.0.0.1"
    driver_caps: Optional[ProtocolCaps] = None
    worker_caps: Optional[Dict[int, ProtocolCaps]] = None
    entropy_coding: bool = False
    chunk_bytes: int = DEFAULT_CHUNK_BYTES

    def __post_init__(self) -> None:
        if self.backend not in TRANSPORT_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {TRANSPORT_BACKENDS}"
            )
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")


@dataclass
class RoundResult:
    """One worker's answer to a ``STEP``.

    ``message`` is the deserialized compressed gradient (``None`` when
    the worker's partition was exhausted this epoch);
    ``message_bytes`` is the on-the-wire size actually shipped.
    """

    worker_id: int
    has_batch: bool
    local_loss: float
    compute_seconds: float
    encode_seconds: float
    gradient_nnz: int
    message: Optional[object]
    message_bytes: int
    #: live-ops metric deltas that rode the GRAD reply (empty on
    #: non-ops connections); folded into the metrics hub by ``step``.
    metrics: Dict[str, int] = field(default_factory=dict)


def _sim_handler(
    runtime: WorkerRuntime, worker_id: int
) -> Callable[[bytes], List[bytes]]:
    """In-process equivalent of the spawned worker's serve loop.

    Mirrors ``serve()``'s frame dispatch including CHUNK/END
    reassembly: the sim transport negotiates frame v2 by default, so
    a broadcast UPDATE larger than ``chunk_bytes`` arrives here as a
    chunk stream.  Reassembly protocol errors drop the stream and
    leave the retry to supervision, exactly like the spawned worker.
    """
    reassembler = ChunkReassembler()

    def handle(frame: bytes) -> List[bytes]:
        kind, _, payload = unpack_frame(frame)
        if kind == KIND_ECHO:
            return [pack_frame(KIND_ECHO, worker_id, payload)]
        if kind in (KIND_STOP, KIND_HEARTBEAT):
            return []
        if kind == KIND_CHUNK:
            try:
                reassembler.feed_tolerant(payload)
            except FrameError:
                reassembler.reset()
            return []
        if kind == KIND_END:
            try:
                stream = reassembler.finish_tolerant(payload)
            except FrameError:
                reassembler.reset()
                return []
            if stream is None:
                return []
            inner_kind, chunks = stream
            return runtime.handle_chunks(inner_kind, chunks)
        return runtime.handle(kind, payload)

    return handle


class RuntimeCluster:
    """Boot, drive, and tear down ``W`` workers on any backend.

    Args:
        bootstraps: one :class:`WorkerBootstrap` per worker, in worker
            id order (ids must be ``0..W-1``).
        config: backend + supervision + fault selection.
        network: optional :class:`~repro.distributed.network.
            NetworkModel`, attached to the ``sim`` transport to charge
            simulated wire time per frame.
    """

    def __init__(
        self,
        bootstraps: List[WorkerBootstrap],
        config: Optional[RuntimeConfig] = None,
        *,
        network=None,
    ) -> None:
        if not bootstraps:
            raise ValueError("at least one worker bootstrap is required")
        for expect, spec in enumerate(bootstraps):
            if spec.worker_id != expect:
                raise ValueError(
                    f"bootstraps must be in id order: slot {expect} "
                    f"holds worker {spec.worker_id}"
                )
        self.config = config or RuntimeConfig()
        self.num_workers = len(bootstraps)
        self._closed = False
        backend = self.config.backend
        # The cluster owns the wire policy: stamp it onto every
        # bootstrap so workers and driver agree from one knob.
        for spec in bootstraps:
            spec.entropy_coding = bool(self.config.entropy_coding)
            spec.chunk_bytes = int(self.config.chunk_bytes)
        if backend == "sim":
            runtimes = [WorkerRuntime(spec) for spec in bootstraps]
            handlers = [
                _sim_handler(rt, i) for i, rt in enumerate(runtimes)
            ]
            transport: Transport = SimTransport(
                handlers, network=network,
                driver_caps=self.config.driver_caps,
                worker_caps=self.config.worker_caps,
            )
            for worker_id, runtime in enumerate(runtimes):
                frame_v, payload_v = transport.negotiated[worker_id]
                runtime.set_wire(
                    frame_v, payload_v,
                    ops=transport.ops_enabled(worker_id),
                )
            # Simulated retries must not burn wall time.
            sleeper: Callable[[float], None] = lambda _s: None
        else:
            transport = make_transport(
                backend, self.num_workers, tcp_host=self.config.tcp_host,
                driver_caps=self.config.driver_caps,
                worker_caps=self.config.worker_caps,
            )
            import time

            sleeper = time.sleep
        #: per-worker pinned ``(frame_version, payload_version)``
        self.negotiated: Dict[int, Tuple[int, int]] = dict(
            transport.negotiated
        )
        #: per-worker live-ops capability (both sides advertised it on
        #: a frame-v2 connection); captured before any fault wrapper.
        self.ops: Dict[int, bool] = dict(getattr(transport, "ops", {}))
        if self.config.faults is not None or self.config.fault_schedule is not None:
            transport = FaultyTransport(
                transport,
                config=self.config.faults,
                schedule=self.config.fault_schedule,
            )
        self.transport = transport
        self.supervisor = Supervisor(
            transport, self.config.supervision, sleeper=sleeper
        )
        if backend != "sim":
            self._init_workers(bootstraps)
        hub = telemetry.metrics_hub()
        if hub is not None:
            hub.set_info(
                backend=backend,
                workers=self.num_workers,
                entropy_coding=bool(self.config.entropy_coding),
                chunk_bytes=int(self.config.chunk_bytes),
            )
            hub.mark_ready()

    # ------------------------------------------------------------------
    def _init_workers(self, bootstraps: List[WorkerBootstrap]) -> None:
        """INIT → READY handshake with every spawned worker."""
        frames = [
            pack_frame(KIND_INIT, DRIVER_SENDER, spec.to_bytes())
            for spec in bootstraps
        ]
        sent = self._send_all(frames)
        self._collect(
            frames,
            sent,
            phase="init",
            expect_kind=KIND_READY,
            timeout=self.config.supervision.init_timeout,
        )
        self._require_workers("init")

    def _send_all(
        self,
        frames: List[Union[bytes, List[bytes]]],
        workers: Optional[Iterable[int]] = None,
    ) -> Dict[int, bool]:
        """Pipelined fan-out: push every frame before collecting replies.

        An entry may be a single frame or a chunked ``CHUNK``...``END``
        sequence (sent back to back).  Targets the active membership by
        default; elastic phases pass an explicit subset.  Returns which
        sends succeeded; failed sends are retried inside the supervisor
        (``already_sent=False``).
        """
        if workers is None:
            workers = self.supervisor.members
        sent: Dict[int, bool] = {}
        for worker_id in sorted(workers):
            entry = frames[worker_id]
            pieces = [entry] if isinstance(entry, bytes) else entry
            try:
                for piece in pieces:
                    self.transport.send(worker_id, piece)
                sent[worker_id] = True
            except TransportError:
                sent[worker_id] = False
        return sent

    def _collect(
        self,
        frames: List[bytes],
        sent: Dict[int, bool],
        *,
        phase: str,
        expect_kind: int,
        decode: Optional[Callable[[bytes], object]] = None,
        timeout: Optional[float] = None,
        workers: Optional[Iterable[int]] = None,
    ) -> Dict[int, object]:
        """Gather one reply per alive worker, in arrival order when the
        transport can tell us (``ready_workers``), worker-id order
        otherwise.

        On an event-driven transport a reply that is already buffered
        is serviced — and *decoded* — immediately, while slower
        workers' replies are still in flight; the classic backends fall
        back to the id-order walk.  Results are returned keyed and
        iterable in ascending worker id regardless of arrival order,
        so downstream float aggregation visits workers in the same
        order on every backend (bit-identical training).
        """
        targets = (
            self.supervisor.members if workers is None else set(workers)
        )
        ready_fn = getattr(self.transport, "ready_workers", None)
        results: Dict[int, object] = {}
        overlapped = 0
        with telemetry.span("runtime.gather", phase=phase):
            while True:
                pending = [
                    w for w in sorted(targets & self.supervisor.alive)
                    if w not in results
                ]
                if not pending:
                    break
                worker_id = pending[0]
                if ready_fn is not None and len(pending) > 1:
                    ready = ready_fn(pending)
                    if ready:
                        worker_id = ready[0]
                        if worker_id != pending[0]:
                            # Decoding this early arrival overlaps with
                            # the still-in-flight replies of the
                            # workers it overtook.
                            overlapped += 1
                result = self.supervisor.request(
                    worker_id,
                    frames[worker_id],
                    phase=phase,
                    expect_kind=expect_kind,
                    decode=decode,
                    timeout=timeout,
                    already_sent=sent.get(worker_id, False),
                )
                results[worker_id] = result
            if overlapped:
                telemetry.counter(
                    "runtime.gather.overlap_decodes", overlapped, phase=phase
                )
        return {w: results[w] for w in sorted(results)}

    def _require_workers(self, phase: str) -> None:
        if not self.supervisor.members:
            dead = {
                w: str(err) for w, err in sorted(self.supervisor.dead.items())
            }
            raise ClusterError(
                f"no active workers left after phase {phase!r}: "
                f"dead={dead} detached={sorted(self.supervisor.detached)}"
            )

    # ------------------------------------------------------------------
    @property
    def alive_workers(self) -> List[int]:
        return sorted(self.supervisor.alive)

    @property
    def member_workers(self) -> List[int]:
        """Active membership: alive and not detached, ascending."""
        return sorted(self.supervisor.members)

    @property
    def dropped_workers(self) -> Dict[int, str]:
        return {w: str(e) for w, e in sorted(self.supervisor.dead.items())}

    @property
    def charged_seconds(self) -> float:
        """Simulated wire seconds (``sim`` backend only, else 0)."""
        inner = self.transport
        if isinstance(inner, FaultyTransport):
            inner = inner.inner
        return getattr(inner, "charged_seconds", 0.0)

    # ------------------------------------------------------------------
    def start_epoch(
        self, epoch: int, workers: Optional[Iterable[int]] = None
    ) -> None:
        """Reshuffle the partitions of the targeted workers (all active
        members by default) for a new epoch."""
        self.supervisor.check_heartbeats(phase="epoch")
        targets = (
            sorted(self.supervisor.members) if workers is None
            else sorted(workers)
        )
        frame = pack_frame(KIND_EPOCH, DRIVER_SENDER, pack_ack(epoch))
        frames = [frame] * self.num_workers
        sent = self._send_all(frames, targets)

        def decode(payload: bytes) -> int:
            acked = unpack_ack(payload)
            if acked != epoch:
                raise FrameError(f"stale epoch ack {acked} (want {epoch})")
            return acked

        self._collect(
            frames, sent, phase="epoch", expect_kind=KIND_ACK,
            decode=decode, workers=targets,
        )
        self._require_workers("epoch")

    def step(
        self,
        round_id: int,
        lr: float,
        workers: Optional[Iterable[int]] = None,
    ) -> Dict[int, RoundResult]:
        """One gradient round: STEP the targeted workers (all active
        members by default), collect GRAD replies.

        Returns results keyed by worker id, ascending — only for
        workers that answered.  Each GRAD payload round-trips through
        :func:`~repro.core.serialization.deserialize_message` (or its
        streaming twin for a chunked reply) inside the supervised
        decode, so a corrupted reply is rejected (and retried) rather
        than aggregated.
        """
        self.supervisor.check_heartbeats(phase="step")
        targets = (
            sorted(self.supervisor.members) if workers is None
            else sorted(workers)
        )
        # Stamp the innermost open driver span (the trainer's round
        # span) into STEP frames for ops-capable workers: their
        # worker.step spans parent under it across the process
        # boundary.  Context bytes never reach the training math.
        span_ctx = telemetry.current_span_id()
        base = pack_step(round_id, lr)
        frame = pack_frame(KIND_STEP, DRIVER_SENDER, base)
        frames: List[Union[bytes, List[bytes]]] = [frame] * self.num_workers
        if span_ctx is not None:
            ops_frame = pack_frame(
                KIND_STEP, DRIVER_SENDER, base + pack_ops(span_ctx)
            )
            for w in targets:
                if self.ops.get(w, False):
                    frames[w] = ops_frame
        with telemetry.span("runtime.fanout", phase="step"):
            sent = self._send_all(frames, targets)

        def decode(payload) -> RoundResult:
            if isinstance(payload, list):
                # Streamed GRAD: peel the fixed header (and any ops
                # block) off the chunk list; the message bytes go to
                # the streaming deserialiser without ever being joined
                # contiguously.
                head, rest = split_chunk_prefix(payload, GRAD_HEADER_SIZE)
                (rid, has_batch, loss, compute_s, encode_s, nnz,
                 _) = unpack_grad(head)
                _, deltas, rest = split_ops_prefix_chunks(rest)
            else:
                (rid, has_batch, loss, compute_s, encode_s, nnz,
                 rest) = unpack_grad(payload)
                _, deltas, rest = unpack_ops_prefix(rest)
            if rid != round_id:
                raise FrameError(
                    f"stale GRAD for round {rid} (want {round_id})"
                )
            if isinstance(rest, list):
                data_len = sum(len(c) for c in rest)
                message = (
                    deserialize_message_chunks(rest) if has_batch else None
                )
            else:
                data_len = len(rest)
                message = deserialize_message(rest) if has_batch else None
            return RoundResult(
                worker_id=-1,
                has_batch=has_batch,
                local_loss=loss,
                compute_seconds=compute_s,
                encode_seconds=encode_s,
                gradient_nnz=nnz,
                message=message,
                message_bytes=data_len,
                metrics=deltas,
            )

        collected = self._collect(
            frames, sent, phase="step", expect_kind=KIND_GRAD,
            decode=decode, workers=targets,
        )
        results: Dict[int, RoundResult] = {}
        for worker_id, result in collected.items():
            if result is not None:
                result.worker_id = worker_id
                if result.metrics:
                    telemetry.ingest_worker_metrics(
                        worker_id, result.metrics
                    )
                results[worker_id] = result
        self._require_workers("step")
        return results

    def broadcast(
        self,
        round_id: int,
        lr: float,
        message_bytes: Optional[bytes] = None,
        workers: Optional[Iterable[int]] = None,
        *,
        message=None,
    ) -> List[int]:
        """Ship the aggregated update to the targeted workers (all
        active members by default); await acks.

        ``message_bytes`` is the legacy pre-serialized v1 payload and
        is valid on every peer.  When ``message`` (the
        :class:`~repro.compression.base.CompressedGradient` from
        :class:`~repro.core.compressor.SketchMLCompressor`) is also
        given, workers whose negotiated payload version is >= 2 get a
        payload serialized at that version (entropy-coded when the
        runtime config enables it); without ``message_bytes``, v1 peers
        get ``message`` serialized at v1, which needs a message that
        was not decoded from payload v2.  Serialization happens at
        most once per distinct ``(version, entropy)`` pair.  Frame-v2
        connections receive updates larger than ``config.chunk_bytes``
        as a ``CHUNK``/``END`` stream.

        Returns the worker ids that acknowledged applying the update.
        """
        if message_bytes is None and message is None:
            raise ValueError("broadcast needs message_bytes or message")
        self.supervisor.check_heartbeats(phase="update")
        targets = (
            sorted(self.supervisor.members) if workers is None
            else sorted(workers)
        )
        header = pack_update_header(round_id, lr)
        cache: Dict[Tuple[int, bool], bytes] = {}

        def payload_for(version: int) -> bytes:
            entropy = bool(self.config.entropy_coding) and version >= 2
            key = (version, entropy)
            data = cache.get(key)
            if data is None:
                if version == 1 and message_bytes is not None:
                    data = message_bytes
                else:
                    data = serialize_message(
                        message, version=version, entropy=entropy
                    )
                cache[key] = data
            return data

        # Span context for ops-capable workers: worker.update spans
        # parent under the driver's round span (see ``step``).
        span_ctx = telemetry.current_span_id()
        ops_block = pack_ops(span_ctx) if span_ctx is not None else b""
        frames: List[Union[bytes, List[bytes]]] = [b""] * self.num_workers
        for w in targets:
            frame_v, payload_v = self.negotiated.get(w, (1, 1))
            version = payload_v if (message is not None and payload_v >= 2) else 1
            data = payload_for(version)
            extra = ops_block if self.ops.get(w, False) else b""
            pieces = [header, extra, data] if extra else [header, data]
            if (
                frame_v >= 2
                and sum(len(p) for p in pieces) > self.config.chunk_bytes
            ):
                frames[w] = list(
                    iter_chunk_frames(
                        KIND_UPDATE,
                        DRIVER_SENDER,
                        pieces,
                        chunk_bytes=self.config.chunk_bytes,
                    )
                )
            else:
                frames[w] = pack_frame(
                    KIND_UPDATE, DRIVER_SENDER, b"".join(pieces)
                )
        with telemetry.span("runtime.fanout", phase="update"):
            sent = self._send_all(frames, targets)

        def decode(payload: bytes) -> int:
            acked = unpack_ack(payload)
            if acked != round_id:
                raise FrameError(
                    f"stale update ack {acked} (want {round_id})"
                )
            return acked

        collected = self._collect(
            frames, sent, phase="update", expect_kind=KIND_ACK,
            decode=decode, workers=targets,
        )
        acked = [w for w, result in collected.items() if result is not None]
        self._require_workers("update")
        return acked

    # ------------------------------------------------------------------
    # elastic membership (repro.fleet)
    # ------------------------------------------------------------------
    def detach_worker(self, worker_id: int) -> None:
        """Elastic leave: the worker's process stays up (it keeps
        heartbeating and can rejoin) but it takes no part in rounds."""
        self.supervisor.detach(worker_id)
        telemetry.event(
            "fleet.leave", worker=worker_id,
            active=len(self.supervisor.members),
        )

    def attach_worker(self, worker_id: int) -> None:
        """Elastic join: return a detached worker to the membership.

        The caller must follow with :meth:`sync_worker` (replica state)
        and a :meth:`reshard` (data shards) before stepping it.
        """
        if worker_id not in self.supervisor.alive:
            raise ClusterError(
                f"worker {worker_id} cannot rejoin: "
                f"{self.supervisor.dead.get(worker_id, 'never booted')}"
            )
        self.supervisor.attach(worker_id)
        telemetry.event(
            "fleet.join", worker=worker_id,
            active=len(self.supervisor.members),
        )

    def sync_worker(
        self, worker_id: int, round_id: int, state_bytes: bytes
    ) -> None:
        """Ship the driver's replica state to one (re)joining worker.

        ``state_bytes`` is the pickled control dict built by the fleet
        trainer (theta + optimizer copy); uses the init timeout since
        the state scales with the model, not with a step.
        """
        frame = pack_frame(KIND_SYNC, DRIVER_SENDER, state_bytes)

        def decode(payload: bytes) -> int:
            acked = unpack_ack(payload)
            if acked != round_id:
                raise FrameError(
                    f"stale sync ack {acked} (want {round_id})"
                )
            return acked

        result = self.supervisor.request(
            worker_id,
            frame,
            phase="sync",
            expect_kind=KIND_ACK,
            decode=decode,
            timeout=self.config.supervision.init_timeout,
        )
        if result is None:
            raise ClusterError(
                f"worker {worker_id} failed to sync at round {round_id}"
            )

    def reshard(
        self, generation: int, assignments: Dict[int, bytes]
    ) -> None:
        """Re-partition: ship each targeted worker its new shard spec.

        ``assignments`` maps worker id → pickled control dict (rows,
        batch size, shuffle seed) built by the fleet trainer.  Fan-out
        is pipelined like every other phase; every targeted worker must
        ack the generation.
        """
        frames = [b""] * self.num_workers
        for worker_id, payload in assignments.items():
            frames[worker_id] = pack_frame(
                KIND_RESHARD, DRIVER_SENDER, payload
            )
        targets = sorted(assignments)
        sent = self._send_all(frames, targets)

        def decode(payload: bytes) -> int:
            acked = unpack_ack(payload)
            if acked != generation:
                raise FrameError(
                    f"stale reshard ack {acked} (want {generation})"
                )
            return acked

        self._collect(
            frames, sent, phase="reshard", expect_kind=KIND_ACK,
            decode=decode, workers=targets,
        )
        self._require_workers("reshard")
        telemetry.event(
            "fleet.reshard", generation=generation, workers=len(targets)
        )

    def echo(self, worker_id: int, payload: bytes) -> bytes:
        """Round-trip raw bytes through a worker (transport benchmark)."""
        result = self.supervisor.request(
            worker_id,
            pack_frame(KIND_ECHO, DRIVER_SENDER, payload),
            phase="echo",
            expect_kind=KIND_ECHO,
        )
        if result is None:
            raise ClusterError(f"worker {worker_id} unavailable for echo")
        return result

    # ------------------------------------------------------------------
    def close(self) -> None:
        """STOP the workers (best effort) and tear down the transport."""
        if self._closed:
            return
        self._closed = True
        stop = pack_frame(KIND_STOP, DRIVER_SENDER)
        for worker_id in sorted(self.supervisor.alive):
            try:
                self.transport.send(worker_id, stop)
            except TransportError:
                pass  # already gone; close() reaps it
        self.transport.close()

    def __enter__(self) -> "RuntimeCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
