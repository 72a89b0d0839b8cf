"""Deterministic seeded fault injection for runtime transports.

A :class:`FaultyTransport` wraps any real :class:`~repro.runtime.
transport.Transport` and perturbs the frame stream on its way through:

* **drop** — a sent frame silently vanishes (the worker never sees
  it); supervision must time out and retry.
* **delay** — a received frame is withheld for ``n`` further ``recv``
  calls (sim) or until a wall-clock holdback elapses (real backends),
  exercising the timeout path without killing the worker.
* **duplicate** — a received frame is delivered twice; round-numbered
  idempotency on both sides must make the second copy harmless.
* **corrupt** — payload bytes of a received frame (or, when a
  :class:`FaultSchedule` names the ``send`` direction, of a sent one)
  are flipped.  The frame header is left intact on purpose: the frame
  still *parses*, so the corruption must be caught downstream by
  ``deserialize_message`` / the ``REPRO_SANITIZE`` invariant checks,
  not masked by the frame layer.

Faults fire from a seeded RNG (:class:`FaultConfig`) or an explicit
:class:`FaultSchedule` (exact ``(direction, worker, frame_index)``
triggers) so every failure path is replayable in tests.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from .. import telemetry
from .framing import HEADER_SIZE
from .transport import Transport, TransportTimeout

__all__ = ["FaultConfig", "FaultSchedule", "FaultyTransport"]

#: Fault kinds a schedule entry may name.
_FAULT_KINDS = ("drop", "delay", "duplicate", "corrupt")


@dataclass(frozen=True)
class FaultConfig:
    """Seeded probabilistic fault rates.

    Probabilities are evaluated per frame, independently per fault
    kind; ``drop`` applies to driver→worker sends, the rest to
    worker→driver receives (where retries are observable).

    Attributes:
        seed: fault RNG seed — same seed, same fault pattern.
        drop_rate: probability a sent frame is dropped.
        delay_rate: probability a received frame is delayed.
        duplicate_rate: probability a received frame is duplicated.
        corrupt_rate: probability a received frame's payload is
            corrupted.
        delay_recvs: sim backends: withhold a delayed frame for this
            many subsequent ``recv`` calls.
        delay_seconds: real backends: withhold a delayed frame for
            this much wall time.
        max_faults: total fault budget (0 = unlimited); keeps a high
            rate from starving a run forever.
    """

    seed: int = 0
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_recvs: int = 2
    delay_seconds: float = 0.05
    max_faults: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "delay_rate", "duplicate_rate", "corrupt_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.delay_recvs < 0 or self.delay_seconds < 0 or self.max_faults < 0:
            raise ValueError("delay/budget settings must be non-negative")

    @property
    def any_enabled(self) -> bool:
        return (
            self.drop_rate > 0
            or self.delay_rate > 0
            or self.duplicate_rate > 0
            or self.corrupt_rate > 0
        )


@dataclass
class FaultSchedule:
    """Exact fault triggers: ``(kind, direction, worker_id, index)``.

    ``index`` counts frames per ``(direction, worker)`` stream from 0.
    ``direction`` is ``"send"`` (driver→worker) or ``"recv"``
    (worker→driver).  Tests use this for surgically-placed failures;
    the probabilistic :class:`FaultConfig` is layered on top when both
    are given.
    """

    entries: List[Tuple[str, str, int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for kind, direction, worker_id, index in self.entries:
            if kind not in _FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
            if direction not in ("send", "recv"):
                raise ValueError(f"unknown direction {direction!r}")
            if worker_id < 0 or index < 0:
                raise ValueError("worker_id and index must be non-negative")

    def add(self, kind: str, direction: str, worker_id: int, index: int) -> "FaultSchedule":
        self.entries.append((kind, direction, worker_id, index))
        self.__post_init__()
        return self

    def lookup(self, direction: str, worker_id: int, index: int) -> Set[str]:
        return {
            kind
            for kind, d, w, i in self.entries
            if d == direction and w == worker_id and i == index
        }


class FaultyTransport(Transport):
    """Transport wrapper injecting seeded drop/delay/duplicate/corrupt.

    Wraps any backend; owns a fault RNG and per-stream frame counters
    so runs with the same seed/schedule see the same fault pattern.
    Statistics land in :attr:`stats` for assertions.
    """

    def __init__(
        self,
        inner: Transport,
        config: Optional[FaultConfig] = None,
        schedule: Optional[FaultSchedule] = None,
    ) -> None:
        super().__init__(inner.num_workers)
        self.inner = inner
        self.name = f"faulty-{inner.name}"
        self.config = config or FaultConfig()
        self.schedule = schedule
        self._rng = np.random.default_rng(self.config.seed)
        self._send_index: Dict[int, int] = collections.defaultdict(int)
        self._recv_index: Dict[int, int] = collections.defaultdict(int)
        # Delayed frames: (release_after_recv_count, frame) per worker.
        self._held: Dict[int, Deque[Tuple[int, bytes]]] = (
            collections.defaultdict(collections.deque)
        )
        self._recv_calls: Dict[int, int] = collections.defaultdict(int)
        self.stats: Dict[str, int] = {
            kind + "s": 0 for kind in _FAULT_KINDS
        }

    # ------------------------------------------------------------------
    def _budget_left(self) -> bool:
        if self.config.max_faults <= 0:
            return True
        return sum(self.stats.values()) < self.config.max_faults

    def _faults_for(self, direction: str, worker_id: int, index: int) -> Set[str]:
        faults: Set[str] = set()
        if self.schedule is not None:
            faults |= self.schedule.lookup(direction, worker_id, index)
        cfg = self.config
        if cfg.any_enabled:
            if direction == "send":
                if cfg.drop_rate > 0 and self._rng.random() < cfg.drop_rate:
                    faults.add("drop")
            else:
                if cfg.delay_rate > 0 and self._rng.random() < cfg.delay_rate:
                    faults.add("delay")
                if cfg.duplicate_rate > 0 and self._rng.random() < cfg.duplicate_rate:
                    faults.add("duplicate")
                if cfg.corrupt_rate > 0 and self._rng.random() < cfg.corrupt_rate:
                    faults.add("corrupt")
        if faults and not self._budget_left():
            return set()
        return faults

    def _corrupt(self, frame: bytes) -> bytes:
        """Flip bytes in the payload, leaving the header parseable.

        Corruption must be caught by the *content* layer (message
        deserialization + sanitizer invariants), so the frame header —
        magic, kind, declared length — stays intact.  Header-level
        mangling is a different failure (stream desync) with its own
        transport-level handling.
        """
        if len(frame) <= HEADER_SIZE:
            return frame  # nothing to corrupt without breaking the header
        data = bytearray(frame)
        payload_len = len(frame) - HEADER_SIZE
        n_flips = max(1, payload_len // 64)
        offsets = self._rng.integers(0, payload_len, size=n_flips)
        for off in offsets:
            data[HEADER_SIZE + int(off)] ^= 0xA5
        return bytes(data)

    # ------------------------------------------------------------------
    def send(self, worker_id: int, frame: bytes) -> None:
        index = self._send_index[worker_id]
        self._send_index[worker_id] += 1
        faults = self._faults_for("send", worker_id, index)
        if "drop" in faults:
            self.stats["drops"] += 1
            telemetry.event(
                "fault.drop", worker=worker_id, direction="send", index=index
            )
            return  # the frame never reaches the worker
        if "corrupt" in faults:
            self.stats["corrupts"] += 1
            telemetry.event(
                "fault.corrupt", worker=worker_id, direction="send", index=index
            )
            frame = self._corrupt(frame)
        self.inner.send(worker_id, frame)

    def recv(self, worker_id: int, timeout: float) -> bytes:
        self._recv_calls[worker_id] += 1
        call = self._recv_calls[worker_id]
        held = self._held[worker_id]
        if held and held[0][0] <= call:
            return held.popleft()[1]
        frame = self.inner.recv(worker_id, timeout)
        index = self._recv_index[worker_id]
        self._recv_index[worker_id] += 1
        faults = self._faults_for("recv", worker_id, index)
        if "corrupt" in faults:
            self.stats["corrupts"] += 1
            telemetry.event(
                "fault.corrupt", worker=worker_id, direction="recv", index=index
            )
            frame = self._corrupt(frame)
        if "duplicate" in faults:
            self.stats["duplicates"] += 1
            telemetry.event(
                "fault.duplicate", worker=worker_id, direction="recv", index=index
            )
            held.append((call, frame))  # immediately available next recv
        if "delay" in faults:
            self.stats["delays"] += 1
            telemetry.event(
                "fault.delay", worker=worker_id, direction="recv", index=index
            )
            held.append((call + self.config.delay_recvs, frame))
            raise TransportTimeout(
                f"frame from worker {worker_id} delayed by fault injection"
            )
        return frame

    def ready_workers(self, candidates=None):
        """Arrival-order hint passthrough (event-driven inner backends).

        A worker also counts as ready when this wrapper holds a
        delayed/duplicated frame for it that the next ``recv`` call
        would release.  Inner backends without the hint yield ``[]``,
        which degrades to the id-order gather.
        """
        inner_ready = getattr(self.inner, "ready_workers", None)
        ready = list(inner_ready(candidates)) if inner_ready else []
        ids = (
            range(self.num_workers) if candidates is None else candidates
        )
        for worker_id in ids:
            held = self._held.get(worker_id)
            if (
                held
                and held[0][0] <= self._recv_calls[worker_id] + 1
                and worker_id not in ready
            ):
                ready.append(worker_id)
        return ready

    def alive(self, worker_id: int) -> bool:
        return self.inner.alive(worker_id)

    def terminate(self, worker_id: int) -> None:
        self.inner.terminate(worker_id)

    def close(self) -> None:
        self.inner.close()
