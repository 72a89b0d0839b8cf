"""Synchronous data-parallel mini-batch SGD over the simulated cluster.

One trainer run reproduces the paper's execution model (§4.1): the
training set is partitioned row-wise over ``W`` workers; in each round
every worker computes the gradient of its next mini-batch, compresses
it, and pushes it to the driver; the driver aggregates, re-compresses,
and broadcasts; every replica applies the decompressed aggregate with
the shared optimizer.  Compute and codec times are measured on this
machine; wire times come from the :class:`~repro.distributed.network.
NetworkModel`; the real backends run the same round over worker
processes through :mod:`repro.distributed.rounds`.  Per-epoch records
accumulate into a
:class:`~repro.distributed.metrics.TrainingHistory`, from which every
end-to-end figure of the paper is derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .. import telemetry
from ..compression.base import GradientCompressor
from ..data.splits import partition_rows
from ..models.base import Model
from ..optim.optimizers import Optimizer
from ..optim.schedules import ConstantLR, LRSchedule
from ..telemetry.epoch import EpochAccumulator
from .driver import Driver
from .metrics import EpochRecord, TrainingHistory
from .network import NetworkModel
from .rounds import (
    aggregate,
    apply_update,
    make_bootstraps,
    prepare_runtime,
    run_sync_rounds,
)
from .worker import Worker

__all__ = ["TrainerConfig", "DistributedTrainer"]

#: Mirrors :data:`repro.runtime.transport.TRANSPORT_BACKENDS`; kept as a
#: literal here so importing the trainer does not import the runtime
#: package (which imports this package's workers — lazy imports below
#: break the cycle).
_BACKENDS = ("sim", "mp", "aio")

CompressorFactory = Callable[[], GradientCompressor]


@dataclass(frozen=True)
class TrainerConfig:
    """Knobs of a distributed training run.

    Attributes:
        num_workers: ``W`` (paper: 5 / 10 / 50).
        batch_fraction: mini-batch size as a fraction of each worker's
            partition (paper default 10%, §4.1).
        epochs: passes over the full dataset.
        seed: master seed (partitioning + batch shuffling).
        evaluate_test: compute test loss after each epoch (untimed).
        method_label: name recorded in the history (defaults to the
            compressor's registry name).
        compute_seconds_per_nnz: modelled gradient compute time per
            batch nonzero, added on top of measured time (see
            :meth:`repro.distributed.worker.Worker.compute_step`).
        backend: execution backend.  ``"sim"`` (default) runs the
            simulated single-process loop below — the figure-benchmark
            path, unchanged.  ``"mp"`` (pipes) and ``"aio"`` (sockets)
            run the same training semantics over real spawned worker
            processes via :class:`repro.runtime.RuntimeCluster`; gradient
            exchanges round-trip through the serialized wire bytes and
            model updates are bit-identical to ``"sim"`` for the same
            seed.
    """

    num_workers: int = 10
    batch_fraction: float = 0.1
    epochs: int = 10
    seed: int = 0
    evaluate_test: bool = True
    method_label: Optional[str] = None
    compute_seconds_per_nnz: float = 0.0
    backend: str = "sim"

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if not 0.0 < self.batch_fraction <= 1.0:
            raise ValueError("batch_fraction must be in (0, 1]")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.compute_seconds_per_nnz < 0:
            raise ValueError("compute_seconds_per_nnz must be non-negative")
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {_BACKENDS}"
            )


class DistributedTrainer:
    """Drives a full simulated training run.

    Args:
        model: the objective (stateless; shared by all workers).
        optimizer: the shared optimizer instance (applied once per
            round to the single source-of-truth ``theta``).
        compressor_factory: zero-arg callable building one compressor
            per worker plus one for the driver (compressors may carry
            state such as error feedback, so instances are not shared).
        network: wire cost model of the ``sim`` loop (the real backends
            measure wall time instead).
        config: run configuration.
        schedule: optional learning-rate schedule over rounds.
        runtime: optional :class:`repro.runtime.RuntimeConfig` with
            supervision / fault-injection knobs for the real backends
            (its ``backend`` field is overridden by
            ``config.backend``).  Ignored when ``config.backend`` is
            ``"sim"``.

    Example:
        >>> from repro.data import kdd10_like, train_test_split
        >>> from repro.models import LogisticRegression
        >>> from repro.optim import Adam
        >>> from repro.core import SketchMLCompressor
        >>> from repro.distributed import (
        ...     DistributedTrainer, TrainerConfig, cluster1_like)
        >>> data = kdd10_like(scale=0.25)
        >>> train, test = train_test_split(data)
        >>> trainer = DistributedTrainer(
        ...     model=LogisticRegression(data.num_features),
        ...     optimizer=Adam(learning_rate=0.1),
        ...     compressor_factory=SketchMLCompressor,
        ...     network=cluster1_like(),
        ...     config=TrainerConfig(num_workers=4, epochs=2),
        ... )
        >>> history = trainer.train(train, test)
        >>> history.num_epochs
        2
    """

    def __init__(
        self,
        model: Model,
        optimizer: Optimizer,
        compressor_factory: CompressorFactory,
        network: NetworkModel,
        config: Optional[TrainerConfig] = None,
        schedule: Optional[LRSchedule] = None,
        runtime=None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.compressor_factory = compressor_factory
        self.network = network
        self.config = config or TrainerConfig()
        self.schedule = schedule or ConstantLR()
        self.runtime = runtime

    # ------------------------------------------------------------------
    def _partitions(self, train_dataset):
        """Each worker's row partition and mini-batch size, by worker id."""
        cfg = self.config
        for rows in partition_rows(
            train_dataset.num_rows, cfg.num_workers, seed=cfg.seed
        ):
            partition = train_dataset.subset(rows)
            yield partition, max(
                1, int(round(partition.num_rows * cfg.batch_fraction))
            )

    def _build_workers(self, train_dataset) -> "list[Worker]":
        cfg = self.config
        return [
            Worker(
                worker_id=worker_id,
                dataset=partition,
                model=self.model,
                compressor=self.compressor_factory(),
                batch_size=batch_size,
                seed=cfg.seed,
                compute_seconds_per_nnz=cfg.compute_seconds_per_nnz,
            )
            for worker_id, (partition, batch_size) in enumerate(
                self._partitions(train_dataset)
            )
        ]

    def train(self, train_dataset, test_dataset=None) -> TrainingHistory:
        """Run the configured number of epochs; returns the history.

        ``sim`` runs the simulated loop (:meth:`_run_epoch`).  The real
        backends run the same semantics over a worker cluster through
        :func:`~repro.distributed.rounds.run_sync_rounds`: same
        partitioning, batch shuffling, aggregation order, and
        learning-rate schedule indexing, so a fixed seed produces
        bit-identical model updates on every backend; only the time
        accounting differs (wall-clock instead of the network cost
        model — see ``docs/runtime.md``).
        """
        cfg = self.config
        if cfg.backend == "sim":
            workers = self._build_workers(train_dataset)
        else:
            runtime_cfg = prepare_runtime(
                self.runtime, cfg.backend, self.compressor_factory,
                self.model.num_parameters,
            )
            bootstraps = make_bootstraps(
                runtime_cfg, self.model, self.optimizer,
                self.compressor_factory, cfg.compute_seconds_per_nnz,
                [
                    dict(dataset=partition, batch_size=batch_size,
                         seed=cfg.seed)
                    for partition, batch_size in self._partitions(
                        train_dataset
                    )
                ],
            )
        driver = Driver(self.compressor_factory(), self.model.num_parameters)
        theta = self.model.init_theta()
        self.optimizer.prepare(self.model.num_parameters)
        method = cfg.method_label or getattr(
            driver.compressor, "name", type(driver.compressor).__name__
        )
        history = TrainingHistory(
            method=method, model=self.model.name, num_workers=cfg.num_workers
        )
        base_lr = self.optimizer.learning_rate
        test = test_dataset if cfg.evaluate_test else None
        try:
            if cfg.backend == "sim":
                round_counter = 0
                for epoch in range(cfg.epochs):
                    record = self._run_epoch(
                        epoch, workers, driver, theta, base_lr, round_counter
                    )
                    round_counter += max(w.batches_per_epoch for w in workers)
                    if test is not None:
                        record.test_loss = self.model.full_loss(test, theta)
                    history.append(record)
            else:
                from ..runtime import RuntimeCluster

                with RuntimeCluster(bootstraps, runtime_cfg) as cluster:
                    run_sync_rounds(
                        cluster, driver, self.optimizer, theta, history,
                        model=self.model, test_dataset=test,
                        epochs=cfg.epochs, base_lr=base_lr,
                        lr_schedule=self.schedule,
                        weights=None, before_round=None,
                    )
        finally:
            self.optimizer.learning_rate = base_lr
        self._theta = theta
        return history

    @property
    def theta(self) -> np.ndarray:
        """Final model parameters of the last :meth:`train` call."""
        if not hasattr(self, "_theta"):
            raise RuntimeError("train() has not been run yet")
        return self._theta

    # ------------------------------------------------------------------
    def _run_epoch(
        self,
        epoch: int,
        workers: "list[Worker]",
        driver: Driver,
        theta: np.ndarray,
        base_lr: float,
        round_counter: int,
    ) -> EpochRecord:
        acc = EpochAccumulator(epoch)

        with telemetry.context(epoch=epoch), telemetry.span("trainer.epoch"):
            for worker in workers:
                worker.start_epoch()

            while True:
                with telemetry.context(round=round_counter), \
                        telemetry.span("trainer.round"):
                    step_results = []
                    for worker in workers:
                        rows = worker.next_batch()
                        if rows is None or rows.size == 0:
                            continue
                        with telemetry.context(
                            worker=worker.worker_id, phase="step"
                        ), telemetry.span("worker.step") as step_span:
                            result = worker.compute_step(rows, theta)
                            step_span.set_attrs(
                                compute_s=result.compute_seconds,
                                encode_s=result.encode_seconds,
                            )
                            step_results.append(result)
                    if not step_results:
                        break

                    # Workers run in parallel: the round's worker wall
                    # time is the slowest worker's compute + encode.
                    acc.add_seconds("compute", max(
                        r.compute_seconds + r.encode_seconds
                        for r in step_results
                    ))
                    acc.add_seconds(
                        "encode",
                        sum(r.encode_seconds for r in step_results),
                    )
                    messages = [r.message for r in step_results]
                    acc.add_seconds("network", self.network.gather_time(
                        [m.num_bytes for m in messages]
                    ))
                    acc.add_counts(
                        bytes_sent=sum(m.num_bytes for m in messages),
                        raw_bytes=sum(m.raw_bytes for m in messages),
                        num_messages=len(messages),
                        gradient_nnz=sum(
                            r.gradient_nnz for r in step_results
                        ),
                    )
                    acc.add_loss(
                        sum(r.local_loss for r in step_results),
                        len(step_results),
                    )

                    with aggregate(driver, acc, messages, None) as result:
                        acc.add_seconds(
                            "network", self.network.broadcast_time(
                                result.broadcast_message.num_bytes,
                                len(step_results),
                            )
                        )
                    apply_update(
                        self.optimizer, theta, result,
                        base_lr * self.schedule(round_counter), acc,
                    )
                    round_counter += 1

        return EpochRecord(test_loss=None, **acc.record_fields())
