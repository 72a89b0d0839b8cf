"""Driver-side cluster orchestration over a supervised transport.

A :class:`RuntimeCluster` owns the full driver view of one training
run: it boots ``W`` workers on the configured backend (in-process
handlers for ``sim``, spawned OS processes for ``mp`` / ``aio``),
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
from typing import Callable, Dict, Iterable, List, Optional, Union

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
    KIND_ECHO,
    KIND_EPOCH,
    KIND_GRAD,
    KIND_INIT,
    KIND_READY,
    KIND_RESHARD,
    KIND_STEP,
    KIND_STOP,
    KIND_SYNC,
    KIND_UPDATE,
    FrameError,
    iter_chunk_frames,
    pack_ack,
    pack_frame,
    pack_ops,
    pack_step,
    pack_update_header,
    split_chunk_prefix,
    split_ops_prefix_chunks,
    unpack_ack,
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
from .worker_runtime import UpdateMemo, WorkerBootstrap, WorkerRuntime

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
        backend: one of ``sim`` / ``mp`` / ``aio``.
        supervision: retry/timeout/heartbeat policy.
        faults: optional seeded probabilistic fault rates.
        fault_schedule: optional exact fault triggers (tests).
        tcp_host: bind/connect host of the ``aio`` backend's sockets.
        entropy_coding: dense radix coding of bucket-index streams in
            every payload-v2 message the runtime ships, GRAD and UPDATE
            alike (``docs/wire.md``).
        chunk_bytes: data bytes per ``CHUNK`` frame when a GRAD or
            UPDATE body larger than this streams.

    There is no protocol knob: every connection speaks frame v2 with
    the ops plane on and payload v2 (``docs/wire.md``).
    """

    backend: str = "sim"
    supervision: SupervisionConfig = field(default_factory=SupervisionConfig)
    faults: Optional[FaultConfig] = None
    fault_schedule: Optional[FaultSchedule] = None
    tcp_host: str = "127.0.0.1"
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
    #: live-ops metric deltas that rode the GRAD reply (empty from
    #: in-process workers); folded into the metrics hub by ``step``.
    metrics: Dict[str, int] = field(default_factory=dict)


def _ack_decoder(phase: str, want: int) -> Callable[[bytes], int]:
    """Supervised decode of an ``ACK`` that must echo ``want``; a stale
    ack raises, so the supervisor rejects the reply and retries."""

    def decode(payload: bytes) -> int:
        acked = unpack_ack(payload)
        if acked != want:
            raise FrameError(f"stale {phase} ack {acked} (want {want})")
        return acked

    return decode


class RuntimeCluster:
    """Boot, drive, and tear down ``W`` workers on any backend.

    On ``sim`` the workers are in-process :class:`WorkerRuntime`\\ s
    sharing one :class:`~repro.runtime.worker_runtime.UpdateMemo`:
    every broadcast's bytes are decoded once and each replica applies
    that read-only result (theta is unchanged — each replica applied
    the decode of the same bytes before, too).  Spawned ``mp`` /
    ``aio`` workers each own one.

    Args:
        bootstraps: one :class:`WorkerBootstrap` per worker, in worker
            id order (ids must be ``0..W-1``).
        config: backend + supervision + fault selection.
    """

    def __init__(
        self,
        bootstraps: List[WorkerBootstrap],
        config: Optional[RuntimeConfig] = None,
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
            # One decode per broadcast: the in-process replicas share
            # the decoded UPDATE (``UpdateMemo``).  They do not spool:
            # nothing feeds their metrics, and a driver hub in this
            # process sees their counters directly.
            updates = UpdateMemo()
            runtimes = [
                WorkerRuntime(spec, spool=False, updates=updates)
                for spec in bootstraps
            ]
            transport: Transport = SimTransport(
                [runtime.handle_frame for runtime in runtimes]
            )
            # Simulated retries must not burn wall time.
            sleeper: Callable[[float], None] = lambda _s: None
        else:
            transport = make_transport(
                backend, self.num_workers, tcp_host=self.config.tcp_host
            )
            import time

            sleeper = time.sleep
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

        self._collect(
            frames, sent, phase="epoch", expect_kind=KIND_ACK,
            decode=_ack_decoder("epoch", epoch), workers=targets,
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
        # span) into STEP frames: the workers' worker.step spans parent
        # under it across the process boundary.  Context bytes never
        # reach the training math.
        span_ctx = telemetry.current_span_id()
        payload = pack_step(round_id, lr)
        if span_ctx is not None:
            payload += pack_ops(span_ctx)
        frame = pack_frame(KIND_STEP, DRIVER_SENDER, payload)
        frames: List[Union[bytes, List[bytes]]] = [frame] * self.num_workers
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

    def encode_update(self, message) -> bytes:
        """The payload-v2 bytes of one aggregated update, as shipped.

        Entropy coded when the runtime config enables it.  The driver
        calls this once per update and hands the bytes to
        :meth:`broadcast`.
        """
        return serialize_message(
            message, entropy=bool(self.config.entropy_coding)
        )

    def broadcast(
        self,
        round_id: int,
        lr: float,
        message_bytes: bytes,
        workers: Optional[Iterable[int]] = None,
        *,
        message=None,
    ) -> List[int]:
        """Ship the aggregated update to the targeted workers (all
        active members by default); await acks.

        ``message_bytes`` is the update as :meth:`encode_update` wrote
        it; every target receives exactly these bytes.  ``message`` is
        accepted for call-site compatibility and ignored.  An update
        larger than ``config.chunk_bytes`` streams as ``CHUNK``/``END``
        frames.

        Returns the worker ids that acknowledged applying the update.
        """
        del message  # the bytes are the update
        self.supervisor.check_heartbeats(phase="update")
        targets = (
            sorted(self.supervisor.members) if workers is None
            else sorted(workers)
        )
        # Span context: worker.update spans parent under the driver's
        # round span (see ``step``).
        pieces = [pack_update_header(round_id, lr), message_bytes]
        span_ctx = telemetry.current_span_id()
        if span_ctx is not None:
            pieces.insert(1, pack_ops(span_ctx))
        entry: Union[bytes, List[bytes]]
        if sum(len(p) for p in pieces) > self.config.chunk_bytes:
            entry = list(iter_chunk_frames(
                KIND_UPDATE, DRIVER_SENDER, pieces,
                chunk_bytes=self.config.chunk_bytes,
            ))
        else:
            entry = pack_frame(KIND_UPDATE, DRIVER_SENDER, b"".join(pieces))
        frames: List[Union[bytes, List[bytes]]] = [entry] * self.num_workers
        with telemetry.span("runtime.fanout", phase="update"):
            sent = self._send_all(frames, targets)

        collected = self._collect(
            frames, sent, phase="update", expect_kind=KIND_ACK,
            decode=_ack_decoder("update", round_id), workers=targets,
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

        result = self.supervisor.request(
            worker_id,
            frame,
            phase="sync",
            expect_kind=KIND_ACK,
            decode=_ack_decoder("sync", round_id),
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

        self._collect(
            frames, sent, phase="reshard", expect_kind=KIND_ACK,
            decode=_ack_decoder("reshard", generation), workers=targets,
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
