"""Worker-side execution logic, shared by every transport backend.

A :class:`WorkerRuntime` owns one worker's partition, model replica,
optimizer replica, and compressor, and services driver frames:

* ``EPOCH``  — reshuffle and restart batch iteration, ack.
* ``STEP``   — compute + compress the next mini-batch gradient and
  reply with a ``GRAD`` frame whose payload is the *serialized wire
  bytes* of the compressed message.
* ``UPDATE`` — deserialize + decompress the broadcast aggregate and
  apply it to the local :class:`Replica` with the shipped learning
  rate, ack.  Decoded and applied once per process: the in-process
  runtimes of a ``sim`` cluster that have applied the same update
  history share one copy-on-write replica, and every runtime after
  the first adopts the first one's result.
* ``SYNC``   — replace the local replica state (theta + optimizer)
  with the driver's, so a worker joining mid-training starts exactly
  where the surviving fleet is, ack.  The synced replica is private.
* ``RESHARD`` — rebuild the local :class:`~repro.distributed.worker.
  Worker` over a new row shard of the full training set (elastic
  membership changed; the driver re-partitioned), ack.

Every command is **idempotent per round**: the last ``GRAD`` frame and
the last applied update round are cached, so a retried ``STEP`` or
``UPDATE`` (after a dropped or corrupted reply) re-sends the cached
result instead of recomputing — retries never make a worker's replica
diverge from the driver's model.

The same class — and the same frame dispatch,
:meth:`WorkerRuntime.handle_frame` — backs the in-process ``sim``
transport and the spawned ``mp`` / ``aio`` worker processes
(:mod:`repro.runtime.worker_main`).
"""

from __future__ import annotations

import copy
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

from .. import telemetry
from ..telemetry.metrics import WorkerMetrics
from ..compression.base import GradientCompressor
from ..core.serialization import (
    deserialize_message,
    deserialize_message_chunks,
    iter_serialize_message,
)
from ..distributed.worker import Worker
from ..models.base import Model
from ..optim.optimizers import Optimizer
from .framing import (
    DEFAULT_CHUNK_BYTES,
    KIND_ACK,
    KIND_CHUNK,
    KIND_ECHO,
    KIND_END,
    KIND_EPOCH,
    KIND_GRAD,
    KIND_HEARTBEAT,
    KIND_RESHARD,
    KIND_STEP,
    KIND_STOP,
    KIND_SYNC,
    KIND_UPDATE,
    UPDATE_HEADER_SIZE,
    ChunkReassembler,
    FrameError,
    iter_chunk_frames,
    pack_ack,
    pack_frame,
    pack_grad_header,
    pack_metrics,
    pack_ops,
    split_chunk_prefix,
    split_ops_prefix_chunks,
    unpack_ack,
    unpack_frame,
    unpack_ops_prefix,
    unpack_step,
    unpack_update,
)

__all__ = ["Replica", "WorkerBootstrap", "WorkerRuntime"]


@dataclass
class WorkerBootstrap:
    """Everything a worker process needs to reconstruct its state.

    Shipped pickled inside the ``INIT`` frame (workers are child
    processes of the driver on this host; the gradient path itself
    never uses pickle).  All fields must therefore be picklable —
    notably the *compressor instance* rather than a factory closure.

    Attributes:
        worker_id: stable id (seeds batch shuffling, names frames).
        dataset: this worker's row partition (already subset).
        model: shared model definition (stateless).
        optimizer: this replica's optimizer, fresh and unprepared
            (:meth:`~repro.optim.Optimizer.unprepared`): the worker
            allocates the state, so none is pickled into ``INIT``.
        compressor: this worker's compressor instance.
        batch_size: rows per mini-batch.
        seed: base seed for batch order shuffling.
        compute_seconds_per_nnz: modelled compute charge (see
            :class:`~repro.distributed.worker.Worker`).
        heartbeat_interval: seconds between worker heartbeats
            (0 disables; the ``sim`` backend never starts the thread).
        heartbeat_jitter: uniform jitter fraction applied to each
            heartbeat gap, plus a seeded random initial phase — see
            :func:`repro.runtime.worker_main.heartbeat_delays`.
        sanitize: force the :mod:`repro.sanitize` invariant checks on
            in this worker process (the driver's ``REPRO_SANITIZE``
            environment is inherited by spawned children, but a
            programmatic :func:`repro.sanitize.set_enabled` is not —
            this flag carries it across).
        trace_dir: directory of per-process trace part files for the
            active :mod:`repro.telemetry` session (``None`` disables
            the worker-side flight recorder).
        run_id: trace run identifier stamped on every event this
            worker records (matches the driver's run context).
        full_dataset: the *entire* training set (elastic runs only).
            When present, ``dataset`` is ignored and the worker's
            initial shard is ``full_dataset.subset(shard_rows)``;
            keeping the full set on every worker is what makes a
            driver-side ``RESHARD`` a pure control message instead of
            a data transfer.  ``None`` for classic fixed-membership
            runs, where only the pre-cut shard ships.
        shard_rows: row indices of the initial shard into
            ``full_dataset`` (required iff ``full_dataset`` is set).
        entropy_coding: request dense radix coding of the bucket-index
            stream in the payload-v2 GRAD bytes (``docs/wire.md``).
        chunk_bytes: data bytes per ``CHUNK`` frame when a GRAD body
            larger than this streams.
    """

    worker_id: int
    dataset: object
    model: Model
    optimizer: Optimizer
    compressor: GradientCompressor
    batch_size: int
    seed: int = 0
    compute_seconds_per_nnz: float = 0.0
    heartbeat_interval: float = 0.0
    heartbeat_jitter: float = 0.0
    sanitize: bool = False
    trace_dir: Optional[str] = None
    run_id: Optional[str] = None
    full_dataset: Optional[object] = None
    shard_rows: Optional[object] = None
    entropy_coding: bool = False
    chunk_bytes: int = DEFAULT_CHUNK_BYTES

    def to_bytes(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def from_bytes(data: bytes) -> "WorkerBootstrap":
        spec = pickle.loads(data)
        if not isinstance(spec, WorkerBootstrap):
            raise FrameError(
                f"INIT payload is {type(spec).__name__}, "
                "expected WorkerBootstrap"
            )
        return spec


@dataclass
class _StepCache:
    """Cached reply for idempotent retries of the latest round.

    ``frames`` is the full GRAD reply — a single frame, or the
    ``CHUNK``...``END`` sequence when the round streamed.
    """

    round_id: int = -1
    frames: List[bytes] = field(default_factory=list)
    applied_round: int = -1
    synced_round: int = -1
    generation: int = -1
    acks: List[bytes] = field(default_factory=list)


class _Rejected(Exception):
    """A driver frame whose bytes do not parse or decode."""


@contextmanager
def _parsing() -> Iterator[None]:
    """Parse or decode driver bytes: any ``ValueError`` — a
    ``FrameError``, ``SerializationError`` or ``SanitizerError`` —
    rejects the frame (:meth:`WorkerRuntime.handle_frame`)."""
    try:
        yield
    except ValueError as exc:
        raise _Rejected() from exc


class Replica:
    """One model replica: theta and the optimizer state that goes with it.

    The in-process runtimes of a ``sim`` cluster that have applied the
    same update history hold one ``Replica`` between them.
    ``holders`` counts the runtimes that hold it plus the link that
    points to it.  A runtime applies an update to a replica it holds
    alone in place; to a shared one it applies copy-on-write
    (:meth:`apply`): it copies theta, deep-copies the optimizer,
    applies the update to the copy and leaves the link ``(round, lr,
    data, successor)`` on the old replica.  Every other holder that
    gets the same round, learning rate and payload bytes adopts the
    successor (:meth:`successor`) without decoding or applying.  The
    bytes must be equal — contiguous bytes by ``==``, a reassembled
    chunk list piece by piece — so a corrupted or different delivery
    misses and decodes on its own.  Runtimes sharing a replica must
    decode with equal codec settings (one cluster's workers do).
    """

    __slots__ = ("theta", "optimizer", "holders", "link")

    def __init__(self, theta: np.ndarray, optimizer: Optimizer) -> None:
        self.theta = theta
        self.optimizer = optimizer
        self.holders = 0
        self.link: Optional[tuple] = None

    @classmethod
    def boot(cls, bootstrap: WorkerBootstrap) -> "Replica":
        """The initial replica ``bootstrap`` describes: the model's
        initial theta and its optimizer, prepared."""
        bootstrap.optimizer.prepare(bootstrap.model.num_parameters)
        return cls(bootstrap.model.init_theta(), bootstrap.optimizer)

    def hold(self) -> "Replica":
        self.holders += 1
        return self

    def release(self) -> None:
        """Drop one holder; a replica nobody holds any more releases
        its link's successor."""
        replica: Optional[Replica] = self
        while replica is not None:
            replica.holders -= 1
            if replica.holders:
                return
            link, replica.link = replica.link, None
            replica = None if link is None else link[3]

    def successor(self, round_id: int, lr: float, data) -> Optional["Replica"]:
        """The replica a holder made by applying this very update, or
        ``None``."""
        link = self.link
        if link is not None and link[:2] == (round_id, lr) and link[2] == data:
            return link[3]
        return None

    def apply(
        self,
        round_id: int,
        lr: float,
        data,
        keys: np.ndarray,
        values: np.ndarray,
    ) -> "Replica":
        """Apply one decoded update; returns the replica holding the
        result — this one, updated in place, when nothing else holds
        it, else a linked copy."""
        if self.holders > 1:
            target = Replica(self.theta.copy(), copy.deepcopy(self.optimizer))
        else:
            target = self
        target.optimizer.learning_rate = lr
        if keys.size:
            target.optimizer.step(target.theta, keys, values)
        # An in-place write leaves no link (nothing else holds this
        # replica to follow one); a fork replaces it with its own.
        link = None if target is self else (round_id, lr, data, target.hold())
        old, self.link = self.link, link
        if old is not None:
            old[3].release()
        return target


class WorkerRuntime:
    """One worker's replica state + frame handlers.

    ``spool`` is the owner's call: whether GRAD replies and ACKs carry
    an ops block draining :attr:`metrics`.  A spawned worker's
    ``serve()`` spools (it installs a ``SpoolHub`` that feeds those
    metrics); the in-process ``sim`` runtimes of ``RuntimeCluster`` do
    not — nothing feeds their metrics, and a driver hub beside them
    already sees every counter.  ``replica`` is the :class:`Replica`
    to start from; runtimes whose bootstraps start identically share
    one (``RuntimeCluster`` does this for ``sim``), and a runtime
    without one boots its own, which it then updates in place — a
    spawned worker never copies.  A ``sim`` runtime that leaves the
    membership drops its replica (:meth:`leave`).
    """

    def __init__(
        self,
        bootstrap: WorkerBootstrap,
        *,
        spool: bool,
        replica: Optional[Replica] = None,
    ) -> None:
        self.worker_id = int(bootstrap.worker_id)
        self._model = bootstrap.model
        self._full_dataset = bootstrap.full_dataset
        self._compute_seconds_per_nnz = float(
            bootstrap.compute_seconds_per_nnz
        )
        if self._full_dataset is not None:
            if bootstrap.shard_rows is None:
                raise ValueError(
                    "full_dataset bootstraps must carry shard_rows"
                )
            dataset = self._full_dataset.subset(
                np.asarray(bootstrap.shard_rows, dtype=np.int64)
            )
        else:
            dataset = bootstrap.dataset
        self.worker = Worker(
            worker_id=bootstrap.worker_id,
            dataset=dataset,
            model=bootstrap.model,
            compressor=bootstrap.compressor,
            batch_size=bootstrap.batch_size,
            seed=bootstrap.seed,
            compute_seconds_per_nnz=bootstrap.compute_seconds_per_nnz,
        )
        if replica is None:
            replica = Replica.boot(bootstrap)
        self._replica: Optional[Replica] = replica.hold()
        self._cache = _StepCache()
        self._reassembler = ChunkReassembler()
        #: live-ops metric deltas, drained by GRAD replies, UPDATE acks
        #: and the heartbeat thread (only fed in spawned worker
        #: processes — see :meth:`_metric`).
        self.metrics = WorkerMetrics()
        self._spool = bool(spool)
        self._entropy = bool(bootstrap.entropy_coding)
        self._chunk_bytes = int(bootstrap.chunk_bytes)
        if self._chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if bootstrap.sanitize:
            from .. import sanitize

            sanitize.set_enabled(True)

    @property
    def theta(self) -> np.ndarray:
        """This worker's model replica (possibly shared: read only)."""
        return self._held().theta

    def _held(self) -> Replica:
        if self._replica is None:
            raise FrameError(
                f"worker {self.worker_id} left the membership; "
                "only a SYNC gives it a replica again"
            )
        return self._replica

    def leave(self) -> None:
        """Drop this runtime's replica: the worker left the membership.

        A runtime that kept holding a shared replica it no longer
        updates would pin it, and through its link every later
        round's successor.  A rejoin always ships ``SYNC``, which
        installs a private replica; until then ``STEP`` and ``UPDATE``
        raise.
        """
        if self._replica is not None:
            self._replica.release()
            self._replica = None

    def _metric(self, name: str, value: int) -> None:
        """Record one worker counter delta.

        Always emitted as a trace counter event; the process metrics
        hub tee (driver MetricsHub for in-process workers, SpoolHub
        for spawned workers) is what keeps exporter totals
        and trace sums bit-exactly in step.
        """
        telemetry.counter(name, value, worker=self.worker_id)

    def _ops_block(self) -> bytes:
        """Drain the spool into an ops block for the next reply."""
        return pack_ops(None, pack_metrics(self.metrics.take()))

    # ------------------------------------------------------------------
    def handle(self, kind: int, payload: bytes) -> List[bytes]:
        """Service one driver frame; returns the reply frames to send."""
        if kind == KIND_EPOCH:
            return self._handle_epoch(payload)
        if kind == KIND_STEP:
            return self._handle_step(payload)
        if kind == KIND_UPDATE:
            return self._handle_update(payload)
        if kind == KIND_SYNC:
            return self._handle_sync(payload)
        if kind == KIND_RESHARD:
            return self._handle_reshard(payload)
        raise FrameError(f"worker cannot service frame kind {kind}")

    def handle_frame(self, frame: bytes) -> List[bytes]:
        """Service one raw driver frame; returns the reply frames.

        The worker's single frame dispatch: the ``sim`` transport calls
        it directly and a spawned worker's ``serve()`` loop delegates
        every post-``INIT`` frame to it.  ``ECHO`` is answered,
        ``STOP`` / ``HEARTBEAT`` need no reply, and a
        ``CHUNK``/``END`` stream (a broadcast ``UPDATE`` larger than
        ``chunk_bytes``) is reassembled with bounded accounting before
        :meth:`handle_chunks`.  A supervised retry re-sends a whole
        stream from seq 0; a reassembly protocol error drops the partial
        stream instead of failing the worker, and the driver's retry
        delivers a fresh copy.  A frame that does not parse or decode
        (a corrupted or forged ``UPDATE``, say) is dropped the same way,
        unanswered and counted as ``worker.rejected_frames``; nothing
        of it was applied, so the retry applies the update once.
        Errors from compute or the optimizer still propagate.
        """
        try:
            return self._dispatch(frame)
        except _Rejected:
            self._metric("worker.rejected_frames", 1)
            return []

    def _dispatch(self, frame: bytes) -> List[bytes]:
        with _parsing():
            kind, _, payload = unpack_frame(frame)
        if kind == KIND_ECHO:
            return [pack_frame(KIND_ECHO, self.worker_id, payload)]
        if kind in (KIND_STOP, KIND_HEARTBEAT):
            return []
        if kind == KIND_CHUNK:
            try:
                self._reassembler.feed_tolerant(payload)
            except FrameError:
                self._reassembler.reset()
            return []
        if kind == KIND_END:
            try:
                stream = self._reassembler.finish_tolerant(payload)
            except FrameError:
                self._reassembler.reset()
                return []
            if stream is None:
                return []
            return self.handle_chunks(*stream)
        return self.handle(kind, payload)

    # ------------------------------------------------------------------
    def _handle_epoch(self, payload: bytes) -> List[bytes]:
        with _parsing():
            epoch = unpack_ack(payload)
        self.worker.start_epoch()
        return [pack_frame(KIND_ACK, self.worker_id, pack_ack(epoch))]

    def _handle_step(self, payload: bytes) -> List[bytes]:
        with _parsing():
            round_id, _lr, span_id, _ = unpack_step(payload)
        if round_id == self._cache.round_id and self._cache.frames:
            # Retried STEP: re-send the cached reply, don't recompute.
            self._metric("worker.step_retries", 1)
            return list(self._cache.frames)
        # Only the first (computing) service of a round is spanned, so a
        # retried STEP never double-counts worker busy time.  The
        # driver's propagated span context parents this span across the
        # process boundary.
        with telemetry.context(
            worker=self.worker_id, round=round_id, phase="step"
        ), telemetry.remote_parent(span_id), telemetry.span(
            "worker.step"
        ) as step_span:
            rows = self.worker.next_batch()
            if rows is None or rows.size == 0:
                frames = [
                    pack_frame(
                        KIND_GRAD, self.worker_id,
                        pack_grad_header(round_id, False, 0.0, 0.0, 0.0, 0),
                    )
                ]
            else:
                result = self.worker.compute_step(rows, self.theta)
                step_span.set_attrs(
                    compute_s=result.compute_seconds,
                    encode_s=result.encode_seconds,
                )
                self._metric("worker.steps", 1)
                self._metric(
                    "worker.compute_ns",
                    int(result.compute_seconds * 1e9),
                )
                self._metric(
                    "worker.encode_ns", int(result.encode_seconds * 1e9)
                )
                self._metric("worker.grad_nnz", int(result.gradient_nnz))
                frames = self._grad_frames(round_id, result)
        self._cache.round_id = round_id
        self._cache.frames = frames
        return list(frames)

    def _grad_frames(self, round_id: int, result) -> List[bytes]:
        """Serialize one step result at payload v2.

        The message may be entropy coded; a body larger than
        ``chunk_bytes`` streams as ``CHUNK``/``END`` frames without ever
        being joined contiguously.
        """
        data = list(iter_serialize_message(
            result.message, entropy=self._entropy,
            chunk_bytes=self._chunk_bytes,
        ))
        # The serialized message bytes as shipped, metered *before* the
        # ops block is drained so the delta rides this very reply —
        # every metered byte is wire-deliverable, which is what keeps
        # exporter totals == trace sums bit-exact (framed byte counts
        # live in transport.bytes_* on the driver side).
        self._metric("worker.bytes_out", sum(len(piece) for piece in data))
        pieces = [
            pack_grad_header(
                round_id,
                True,
                result.local_loss,
                result.compute_seconds,
                result.encode_seconds,
                result.gradient_nnz,
            )
        ]
        if self._spool:
            # Live-ops block between the GRAD header and the serialized
            # message: drained metric deltas ride the reply.  The
            # message magic ("SKML") can never collide with the ops
            # magic, so the driver peels it tolerantly.
            pieces.append(self._ops_block())
        pieces.extend(data)
        if sum(len(p) for p in pieces) > self._chunk_bytes:
            return list(
                iter_chunk_frames(
                    KIND_GRAD, self.worker_id, pieces,
                    chunk_bytes=self._chunk_bytes,
                )
            )
        return [pack_frame(KIND_GRAD, self.worker_id, b"".join(pieces))]

    def _handle_update(self, payload: bytes) -> List[bytes]:
        with _parsing():
            round_id, lr, data = unpack_update(payload)
            span_id, _, data = unpack_ops_prefix(data)
        return self._apply_update(round_id, lr, data, span_id)

    def handle_chunks(self, inner_kind: int, chunks: List[bytes]) -> List[bytes]:
        """Service a reassembled ``CHUNK``/``END`` stream.

        Only ``UPDATE`` streams: the aggregate is the one driver-to-
        worker payload that scales with the model.  The fixed UPDATE
        header is peeled off the chunk list and the rest goes to the
        streaming deserialiser — the message is never joined.
        """
        if inner_kind != KIND_UPDATE:
            raise FrameError(
                f"worker cannot service chunked frame kind {inner_kind}"
            )
        with _parsing():
            head, rest = split_chunk_prefix(chunks, UPDATE_HEADER_SIZE)
            round_id, lr, _ = unpack_update(head)
            span_id, _, rest = split_ops_prefix_chunks(rest)
        return self._apply_update(round_id, lr, rest, span_id)

    def _apply_update(
        self,
        round_id: int,
        lr: float,
        data,
        span_id: Optional[int] = None,
    ) -> List[bytes]:
        """Decode + apply one broadcast aggregate; ``data`` is the wire
        bytes, contiguous or as a chunk list.

        A runtime sharing its replica first checks the replica's link:
        when another runtime already applied these bytes it adopts the
        result (``shared=True`` on the span, no decode and no apply).
        """
        if round_id == self._cache.applied_round:
            # Retried UPDATE: already applied, just re-ack.
            return [self._pack_ack_reply(round_id)]
        with telemetry.context(
            worker=self.worker_id, round=round_id, phase="update"
        ), telemetry.remote_parent(span_id), telemetry.span(
            "worker.update"
        ) as upd_span:
            replica = self._held()
            successor = replica.successor(round_id, lr, data)
            decode_ns = None
            if successor is not None:
                upd_span.set_attrs(decode_s=0.0, shared=True)
            else:
                t0 = time.perf_counter()
                with _parsing():
                    if isinstance(data, list):
                        message = deserialize_message_chunks(data)
                    else:
                        message = deserialize_message(data)
                    keys, values = self.worker.compressor.decompress(message)
                decode_ns = int((time.perf_counter() - t0) * 1e9)
                upd_span.set_attrs(decode_s=decode_ns / 1e9)
                successor = replica.apply(round_id, lr, data, keys, values)
            if successor is not replica:
                self._replica = successor.hold()
                replica.release()
            self._metric("worker.updates", 1)
            if decode_ns is not None:
                self._metric("worker.decode_ns", decode_ns)
        self._cache.applied_round = round_id
        # The ack's ops block drains everything spooled since the GRAD
        # reply (bytes_out, update metrics) — the round's wire tail, so
        # a clean run delivers every delta without relying on
        # heartbeats.
        return [self._pack_ack_reply(round_id)]

    def _pack_ack_reply(self, round_id: int) -> bytes:
        """ACK with a drained ops prefix when this worker spools.

        A plain ack payload is shorter than the ops header, so the
        driver peels the prefix tolerantly and bare acks (``sim``
        workers) parse the same way.
        """
        body = pack_ack(round_id)
        if self._spool:
            body = self._ops_block() + body
        return pack_frame(KIND_ACK, self.worker_id, body)

    # ------------------------------------------------------------------
    # elastic membership (repro.fleet)
    # ------------------------------------------------------------------
    def _handle_sync(self, payload: bytes) -> List[bytes]:
        """Adopt the driver's replica state (a worker is (re)joining).

        The payload is a pickled control dict — the ``INIT`` idiom, not
        the gradient wire path — carrying the driver's current theta
        and a deep copy of its optimizer, so the joiner's replica is
        bit-identical to every surviving worker's.
        """
        state = pickle.loads(payload)
        round_id = int(state["round"])
        ack = pack_frame(KIND_ACK, self.worker_id, pack_ack(round_id))
        if round_id == self._cache.synced_round:
            return [ack]  # retried SYNC: already applied, just re-ack
        with telemetry.context(
            worker=self.worker_id, round=round_id, phase="sync"
        ), telemetry.span("worker.sync"):
            # A private replica: its state came from the driver, so it
            # shares no history with any other runtime's.
            replica = Replica(
                np.array(state["theta"], dtype=np.float64),
                state["optimizer"],
            )
            self.leave()
            self._replica = replica.hold()
            # A sync invalidates any cached GRAD: it was computed
            # against pre-join state no driver will ever ask for again.
            self._cache.round_id = -1
            self._cache.frames = []
        self._cache.synced_round = round_id
        return [ack]

    def _handle_reshard(self, payload: bytes) -> List[bytes]:
        """Rebuild the local shard after an elastic membership change.

        The driver re-partitioned the full training set over the new
        active membership; this worker's new shard arrives as row
        indices into the full dataset shipped at bootstrap.  The
        compressor instance is kept — error-feedback state survives a
        reshard, mirroring how a production worker keeps its residual
        across re-balancing.
        """
        spec = pickle.loads(payload)
        generation = int(spec["generation"])
        ack = pack_frame(KIND_ACK, self.worker_id, pack_ack(generation))
        if generation == self._cache.generation:
            return [ack]  # retried RESHARD: already applied, just re-ack
        if self._full_dataset is None:
            raise FrameError(
                "worker was not bootstrapped with the full dataset; "
                "elastic resharding is unavailable"
            )
        with telemetry.context(
            worker=self.worker_id, phase="reshard"
        ), telemetry.span("worker.reshard", generation=generation):
            rows = np.asarray(spec["rows"], dtype=np.int64)
            self.worker = Worker(
                worker_id=self.worker_id,
                dataset=self._full_dataset.subset(rows),
                model=self._model,
                compressor=self.worker.compressor,
                batch_size=int(spec["batch_size"]),
                seed=int(spec["seed"]),
                compute_seconds_per_nnz=self._compute_seconds_per_nnz,
            )
            # Fresh worker ⇒ fresh batch iterator; a stale cached GRAD
            # from the previous shard must never answer a new round.
            self._cache.round_id = -1
            self._cache.frames = []
        self._cache.generation = generation
        return [ack]
