"""Elastic + bounded-staleness training over the real runtime backends.

The :class:`FleetTrainer` runs the synchronous round loop of
:mod:`repro.distributed.rounds` — the one
:class:`~repro.distributed.trainer.DistributedTrainer` runs on the real
backends — and generalises it along the two axes the paper's fixed
healthy cluster never exercises:

* **Elastic membership** — the full worker universe is booted once,
  and a :class:`~repro.fleet.membership.MembershipSchedule` detaches /
  re-attaches workers as logical overlay state while their processes
  stay up.  Every membership change triggers a deterministic
  re-partition of the training set over the survivors (``RESHARD``
  control frames; the full dataset ships once at bootstrap) and the
  aggregate is re-weighted by shard-size fractions that sum to 1.  A
  joiner first receives the driver's replica state (``SYNC``), so its
  model is bit-identical to the fleet's before its first step.

* **Bounded staleness** (``--stale N``) — the SSP gate of
  :mod:`repro.distributed.ssp_trainer` folded into the real backends:
  a seeded *virtual clock* (per-worker speed heterogeneity + per-batch
  jitter) decides which worker steps next, workers more than ``N``
  steps ahead of the slowest active worker are parked, and every
  server update is journalled and delivered to each worker just
  before its next step.  All scheduling decisions are driver-side and
  seeded, so the sequence of wire exchanges — and therefore the model
  — is bit-identical across ``sim`` / ``mp`` / ``aio``.

Both modes compose: a run can churn membership *and* gather with a
staleness bound.  See ``docs/fleet.md`` for semantics and caveats.
"""

from __future__ import annotations

import copy
import functools
import heapq
import pickle
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..compression.base import GradientCompressor
from ..data.splits import partition_rows
from ..distributed.driver import Driver
from ..distributed.metrics import TrainingHistory
from ..distributed.rounds import (
    account_results,
    aggregate,
    apply_update,
    finish_epoch,
    make_bootstraps,
    prepare_runtime,
    run_sync_rounds,
)
from ..distributed.trainer import _BACKENDS
from ..models.base import Model
from ..optim.optimizers import Optimizer
from ..optim.schedules import ConstantLR, LRSchedule
from ..telemetry.epoch import EpochAccumulator
from .membership import MembershipSchedule, shard_weights

__all__ = ["FleetConfig", "FleetTrainer"]

CompressorFactory = Callable[[], GradientCompressor]

#: Seed stride between reshard generations — a large prime (like the
#: per-worker strides elsewhere in the repo) so generation streams
#: never collide with worker-id streams.
_GENERATION_STRIDE = 104_729


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of an elastic / stale fleet run.

    Attributes:
        epochs: passes over the training set.
        batch_fraction: mini-batch size as a fraction of each worker's
            *current* shard (recomputed on every reshard).
        seed: master seed — partitioning, batch shuffling, reshard
            generations, and the stale-mode virtual clock all derive
            from it.
        backend: ``sim`` / ``mp`` / ``aio``; all three run the
            same driver-side decision sequence.
        staleness: ``None`` runs synchronous elastic rounds; an ``int``
            ``N >= 0`` runs bounded-async SSP rounds where a worker may
            be at most ``N`` steps ahead of the slowest active worker.
        evaluate_test: compute test loss on the driver replica after
            each epoch (untimed).
        method_label: name recorded in the history.
        compute_seconds_per_nnz: modelled compute charge per batch
            nonzero (see :class:`~repro.distributed.worker.Worker`).
        base_round_seconds: stale mode — modelled mean batch duration
            on a speed-1 worker (virtual clock units).
        heterogeneity: stale mode — per-worker speed multipliers drawn
            from ``1 + heterogeneity * U[0, 1)``, seeded.
    """

    epochs: int = 3
    batch_fraction: float = 0.1
    seed: int = 0
    backend: str = "sim"
    staleness: Optional[int] = None
    evaluate_test: bool = True
    method_label: Optional[str] = None
    compute_seconds_per_nnz: float = 0.0
    base_round_seconds: float = 1.0
    heterogeneity: float = 0.5

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if not 0.0 < self.batch_fraction <= 1.0:
            raise ValueError("batch_fraction must be in (0, 1]")
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {_BACKENDS}"
            )
        if self.staleness is not None and self.staleness < 0:
            raise ValueError("staleness must be None or >= 0")
        if self.base_round_seconds <= 0:
            raise ValueError("base_round_seconds must be positive")
        if self.heterogeneity < 0:
            raise ValueError("heterogeneity must be non-negative")


class FleetTrainer:
    """Drives one elastic / stale training run over a worker fleet.

    Args:
        model: the objective (stateless; shared by all replicas).
        optimizer: the driver's optimizer instance (workers receive
            deep copies; all replicas stay bit-identical by applying
            the same decompressed updates).
        compressor_factory: one compressor per worker + one for the
            driver.
        network: wire cost model; accepted for signature parity with
            :class:`~repro.distributed.trainer.DistributedTrainer` and
            unused — every fleet backend measures wall time.
        schedule: the elastic membership timeline (its ``num_workers``
            is the booted universe size).
        config: fleet knobs.
        lr_schedule: optional learning-rate schedule over aggregated
            rounds (stale mode: over applied updates).
        runtime: optional :class:`repro.runtime.RuntimeConfig`
            (supervision / fault knobs; ``backend`` is overridden).
    """

    def __init__(
        self,
        model: Model,
        optimizer: Optimizer,
        compressor_factory: CompressorFactory,
        network,
        schedule: MembershipSchedule,
        config: Optional[FleetConfig] = None,
        lr_schedule: Optional[LRSchedule] = None,
        runtime=None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.compressor_factory = compressor_factory
        self.network = network
        self.schedule = schedule
        self.config = config or FleetConfig()
        self.lr_schedule = lr_schedule or ConstantLR()
        self.runtime = runtime
        #: per-aggregated-round aggregation weights actually used,
        #: keyed by worker id — the elastic tests assert each round's
        #: weights sum to 1 and shift on every membership change.
        self.round_weights: List[Dict[int, float]] = []
        #: (round, active-id tuple) at every membership transition.
        self.membership_log: List[Tuple[int, Tuple[int, ...]]] = []

    # ------------------------------------------------------------------
    @property
    def theta(self) -> np.ndarray:
        """Final driver-replica parameters of the last train() call."""
        if not hasattr(self, "_theta"):
            raise RuntimeError("train() has not been run yet")
        return self._theta

    def _shard_seed(self, generation: int) -> int:
        return self.config.seed + _GENERATION_STRIDE * generation

    def _partition(
        self, num_rows: int, active: Tuple[int, ...], generation: int
    ) -> Dict[int, np.ndarray]:
        parts = partition_rows(
            num_rows, len(active), seed=self._shard_seed(generation)
        )
        return {w: parts[i] for i, w in enumerate(sorted(active))}

    def _batch_size(self, shard_rows: int) -> int:
        return max(
            1, int(round(shard_rows * self.config.batch_fraction))
        )

    # ------------------------------------------------------------------
    def _build_bootstraps(self, train_dataset, runtime_cfg):
        """One bootstrap per universe worker, full dataset on board.

        Initially inactive workers get a one-row placeholder shard —
        they are detached before the first round and always resharded
        (SYNC + RESHARD) before their first step.
        """
        shards = self._partition(
            train_dataset.num_rows, self.schedule.start, 0
        )
        placeholder = np.array([0], dtype=np.int64)
        per_worker = []
        for worker_id in range(self.schedule.num_workers):
            rows = shards.get(worker_id, placeholder)
            per_worker.append(
                dict(
                    dataset=None,
                    batch_size=self._batch_size(rows.size),
                    seed=self._shard_seed(0),
                    full_dataset=train_dataset,
                    shard_rows=rows,
                )
            )
        self._shard_sizes = {w: int(r.size) for w, r in shards.items()}
        return make_bootstraps(
            runtime_cfg, self.model, self.optimizer, self.compressor_factory,
            self.config.compute_seconds_per_nnz, per_worker,
        )

    # ------------------------------------------------------------------
    def train(self, train_dataset, test_dataset=None) -> TrainingHistory:
        """Run the configured epochs; returns the training history."""
        from ..runtime import RuntimeCluster

        cfg = self.config
        runtime_cfg = prepare_runtime(
            self.runtime, cfg.backend, self.compressor_factory,
            self.model.num_parameters,
        )
        driver = Driver(self.compressor_factory(), self.model.num_parameters)
        method = cfg.method_label or getattr(
            driver.compressor, "name", type(driver.compressor).__name__
        )
        history = TrainingHistory(
            method=method,
            model=self.model.name,
            num_workers=self.schedule.num_workers,
        )
        theta = self.model.init_theta()
        self.optimizer.prepare(self.model.num_parameters)
        base_lr = self.optimizer.learning_rate
        bootstraps = self._build_bootstraps(train_dataset, runtime_cfg)
        self.round_weights = []
        self.membership_log = [(0, self.schedule.start)]
        self._applied_event_rounds: set = set()
        self._generation = 0
        self._num_rows = train_dataset.num_rows
        test = test_dataset if cfg.evaluate_test else None
        try:
            with RuntimeCluster(bootstraps, runtime_cfg) as cluster:
                for worker_id in range(self.schedule.num_workers):
                    if worker_id not in self.schedule.start:
                        cluster.detach_worker(worker_id)
                telemetry.gauge(
                    "fleet.active_workers", len(self.schedule.start)
                )
                if cfg.staleness is None:
                    run_sync_rounds(
                        cluster, driver, self.optimizer, theta, history,
                        model=self.model, test_dataset=test,
                        epochs=cfg.epochs, base_lr=base_lr,
                        lr_schedule=self.lr_schedule,
                        weights=self._weights_for,
                        before_round=functools.partial(
                            self._sync_membership, cluster, theta
                        ),
                    )
                else:
                    self._train_stale(
                        cluster, driver, theta, base_lr, history, test
                    )
        finally:
            self.optimizer.learning_rate = base_lr
        self._theta = theta
        return history

    # ------------------------------------------------------------------
    # shared membership machinery
    # ------------------------------------------------------------------
    def _apply_event(
        self, cluster, event, theta: np.ndarray, round_index: int
    ) -> None:
        """Detach leavers, sync + attach joiners, reshard survivors."""
        for worker_id in event.leaves:
            cluster.detach_worker(worker_id)
        for worker_id in event.joins:
            cluster.attach_worker(worker_id)
            state = pickle.dumps(
                {
                    "round": round_index,
                    "theta": theta,
                    "optimizer": copy.deepcopy(self.optimizer),
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            cluster.sync_worker(worker_id, round_index, state)
        self._generation += 1
        self._reshard(cluster)
        active = tuple(cluster.member_workers)
        self.membership_log.append((round_index, active))
        telemetry.gauge("fleet.active_workers", len(active))

    def _reshard(self, cluster) -> None:
        """Deterministically re-partition over the current members."""
        generation = self._generation
        active = tuple(cluster.member_workers)
        shards = self._partition(self._num_rows, active, generation)
        seed = self._shard_seed(generation)
        assignments = {}
        for worker_id, rows in shards.items():
            assignments[worker_id] = pickle.dumps(
                {
                    "generation": generation,
                    "rows": rows,
                    "batch_size": self._batch_size(rows.size),
                    "seed": seed,
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        cluster.reshard(generation, assignments)
        self._shard_sizes = {w: int(r.size) for w, r in shards.items()}

    def _maybe_apply_event(
        self, cluster, theta: np.ndarray, round_index: int
    ) -> bool:
        event = self.schedule.event_at(round_index)
        if event is None or round_index in self._applied_event_rounds:
            return False
        self._applied_event_rounds.add(round_index)
        self._apply_event(cluster, event, theta, round_index)
        return True

    def _sync_membership(
        self, cluster, theta: np.ndarray, epoch: int, round_index: int
    ) -> None:
        """Sync-mode round hook: apply a due membership event.  Fresh
        shards restart batch iteration, aligned to this epoch's shuffle
        stream."""
        if self._maybe_apply_event(cluster, theta, round_index):
            cluster.start_epoch(epoch)

    def _weights_for(self, worker_ids: List[int]) -> List[float]:
        """Shard-size aggregation weights over a round's contributors,
        in ``worker_ids`` order (also logged in :attr:`round_weights`)."""
        weights = shard_weights({w: self._shard_sizes[w] for w in worker_ids})
        self.round_weights.append(weights)
        return [weights[w] for w in worker_ids]

    # ------------------------------------------------------------------
    # bounded-staleness rounds (SSP over the real backends)
    # ------------------------------------------------------------------
    def _train_stale(
        self, cluster, driver, theta, base_lr, history, test_dataset
    ) -> None:
        cfg = self.config
        universe = self.schedule.num_workers
        staleness = int(cfg.staleness)
        # Seeded virtual clock: per-worker speed heterogeneity plus a
        # per-worker jitter stream.  Pure driver-side state — nothing
        # here depends on wall-clock or wire arrival order.
        speeds = 1.0 + cfg.heterogeneity * np.random.default_rng(
            [cfg.seed, 17]
        ).random(universe)
        jitter = [
            np.random.default_rng([cfg.seed, w, 23])
            for w in range(universe)
        ]

        def duration(worker_id: int) -> float:
            spread = 0.75 + 0.5 * float(jitter[worker_id].random())
            return cfg.base_round_seconds * float(
                speeds[worker_id]
            ) * spread

        update_log: List[Tuple[int, float, bytes]] = []
        delivered = {w: 0 for w in range(universe)}
        progress = {w: 0 for w in range(universe)}
        applied_updates = 0  # schedule key + lr index in stale mode
        protocol_round = 0
        push_seq = 0
        now = 0.0

        def quota(worker_id: int) -> int:
            rows = self._shard_sizes[worker_id]
            return -(-rows // self._batch_size(rows))

        def flush_updates(worker_id: int) -> int:
            sent = 0
            for entry_round, entry_lr, entry_bytes in (
                update_log[delivered[worker_id]:]
            ):
                cluster.broadcast(
                    entry_round, entry_lr, entry_bytes,
                    workers=[worker_id],
                )
                sent += 1
            delivered[worker_id] = len(update_log)
            return sent

        for epoch in range(cfg.epochs):
            acc = EpochAccumulator(epoch)
            with telemetry.context(epoch=epoch), \
                    telemetry.span("trainer.epoch"):
                cluster.start_epoch(epoch)
                steps_done = {w: 0 for w in cluster.member_workers}
                heap: List[Tuple[float, int, int]] = []
                blocked: List[int] = []
                for worker_id in cluster.member_workers:
                    heapq.heappush(
                        heap, (now + duration(worker_id), push_seq, worker_id)
                    )
                    push_seq += 1

                while heap or blocked:
                    if not heap:
                        # Every in-flight worker finished or was
                        # skipped; gated workers are the only runnable
                        # ones left — requeue them at the current
                        # virtual time (the gate re-evaluates on pop).
                        members = set(cluster.member_workers)
                        requeued = False
                        for blocked_id in blocked:
                            if blocked_id in members and (
                                steps_done.get(blocked_id, 0)
                                < quota(blocked_id)
                            ):
                                heapq.heappush(
                                    heap, (now, push_seq, blocked_id)
                                )
                                push_seq += 1
                                requeued = True
                        blocked = []
                        if not requeued:
                            break
                    if self._maybe_apply_event(
                        cluster, theta, applied_updates
                    ):
                        members = set(cluster.member_workers)
                        # Joiners: synced replicas, fresh shards, and a
                        # clock seat at the current virtual time.  The
                        # update journal before their sync round is
                        # already folded into the synced state.
                        floor = min(
                            (progress[w] for w in members), default=0
                        )
                        for worker_id in sorted(members):
                            if worker_id not in steps_done:
                                steps_done[worker_id] = 0
                                progress[worker_id] = floor
                                delivered[worker_id] = len(update_log)
                                heapq.heappush(
                                    heap,
                                    (
                                        now + duration(worker_id),
                                        push_seq,
                                        worker_id,
                                    ),
                                )
                                push_seq += 1
                        cluster.start_epoch(epoch)
                        for worker_id in list(steps_done):
                            if worker_id not in members:
                                steps_done.pop(worker_id)

                    now, _, worker_id = heapq.heappop(heap)
                    members = set(cluster.member_workers)
                    if worker_id not in members:
                        continue  # left while its batch was in flight
                    if steps_done[worker_id] >= quota(worker_id):
                        continue  # re-queued past its epoch quota
                    lagging = [
                        progress[w] for w in members
                        if steps_done.get(w, 0) < quota(w)
                    ]
                    if lagging and (
                        progress[worker_id] - min(lagging) > staleness
                    ):
                        blocked.append(worker_id)
                        continue

                    flush_updates(worker_id)
                    wire_round = protocol_round
                    protocol_round += 1
                    with telemetry.context(round=wire_round), \
                            telemetry.span("trainer.round"):
                        t0 = time.perf_counter()
                        results = cluster.step(
                            wire_round, base_lr, workers=[worker_id]
                        )
                        t1 = time.perf_counter()
                        result = results.get(worker_id)
                        steps_done[worker_id] += 1
                        progress[worker_id] += 1
                        if result is not None and result.has_batch:
                            account_results(acc, [result], t1 - t0)
                            # SSP semantics: each gradient is applied
                            # in full as it lands (weight 1), exactly
                            # like the simulated ssp_trainer.
                            with aggregate(
                                driver, acc, [result.message], [1.0]
                            ) as driver_result:
                                lr = base_lr * self.lr_schedule(
                                    applied_updates
                                )
                            apply_update(
                                self.optimizer, theta, driver_result, lr,
                                acc,
                            )
                            update_log.append(
                                (
                                    wire_round,
                                    lr,
                                    cluster.encode_update(
                                        driver_result.broadcast_message
                                    ),
                                )
                            )
                            applied_updates += 1

                    if steps_done[worker_id] < quota(worker_id):
                        heapq.heappush(
                            heap,
                            (now + duration(worker_id), push_seq, worker_id),
                        )
                        push_seq += 1
                    # This step may have raised the slowest lagging
                    # worker's progress — release gated workers whose
                    # bound now holds.
                    if blocked:
                        members = set(cluster.member_workers)
                        lagging = [
                            progress[w] for w in members
                            if steps_done.get(w, 0) < quota(w)
                        ]
                        floor = min(lagging) if lagging else 0
                        still: List[int] = []
                        for blocked_id in blocked:
                            if blocked_id not in members:
                                continue
                            if progress[blocked_id] - floor <= staleness:
                                heapq.heappush(
                                    heap, (now, push_seq, blocked_id)
                                )
                                push_seq += 1
                            else:
                                still.append(blocked_id)
                        blocked = still

            finish_epoch(
                history, acc, cluster, self.model, test_dataset, theta
            )

        # Converge the replicas: every member receives the tail of the
        # update journal, so worker state ends consistent with the
        # driver theta the history reports.
        for worker_id in cluster.member_workers:
            flush_updates(worker_id)
