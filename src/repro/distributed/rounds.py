"""The synchronous round of the real execution backends, written once.

One round of the paper's execution model (§4.1) over a
:class:`repro.runtime.RuntimeCluster`: ``cluster.step`` (every worker
computes and compresses), worker accounting, ``driver.aggregate``
(decode, merge, re-encode), ``cluster.broadcast`` and the driver
replica's ``optimizer.step``.  :func:`run_sync_rounds` is that loop;
:class:`~repro.distributed.trainer.DistributedTrainer` (``mp`` /
``aio``) and :class:`~repro.fleet.trainer.FleetTrainer` (synchronous
mode) both run it and differ only in the two arguments it takes for
that: the aggregation weights and a per-round hook.

The pieces the other loops share are exposed on their own:
:func:`aggregate` and :func:`apply_update` (also used by the pure-sim
loop and the fleet's bounded-staleness loop), :func:`account_results`
and :func:`finish_epoch` (also used by the bounded-staleness loop),
and the setup helpers :func:`prepare_runtime` / :func:`make_bootstraps`.

``repro.runtime`` imports this package, so it is only imported lazily
here.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import time
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

from .. import telemetry
from ..core.serialization import serialize_message
from ..telemetry.epoch import EpochAccumulator
from .driver import Driver, DriverStepResult
from .metrics import EpochRecord, TrainingHistory

__all__ = [
    "prepare_runtime",
    "make_bootstraps",
    "account_results",
    "aggregate",
    "apply_update",
    "finish_epoch",
    "run_sync_rounds",
]


def prepare_runtime(runtime, backend: str, compressor_factory, dimension: int):
    """The :class:`~repro.runtime.RuntimeConfig` for ``backend``.

    Real backends ship gradients as wire bytes, so this first probes
    that the compressor produces serializable messages: a compressor
    with no wire format fails here, named, before any worker exists.
    """
    from ..runtime import RuntimeConfig

    probe = compressor_factory()
    message = probe.compress(
        np.array([0], dtype=np.int64),
        np.array([1e-3], dtype=np.float64),
        dimension,
    )
    try:
        serialize_message(message)
    except TypeError as exc:
        raise ValueError(
            f"backend {backend!r} requires a compressor "
            f"with a wire format (SketchML family); "
            f"{type(probe).__name__} messages cannot be serialized"
        ) from exc
    config = runtime or RuntimeConfig()
    if config.backend != backend:
        config = dataclasses.replace(config, backend=backend)
    return config


def make_bootstraps(
    runtime_config,
    model,
    optimizer,
    compressor_factory,
    compute_seconds_per_nnz: float,
    shards: Sequence[dict],
) -> list:
    """One :class:`~repro.runtime.WorkerBootstrap` per entry of ``shards``.

    Each ``shards`` entry holds the per-worker fields (data, batch
    size, seed); everything else is common to the fleet.  Every worker
    gets its own optimizer copy and compressor instance.
    """
    from .. import sanitize
    from ..runtime import WorkerBootstrap

    supervision = runtime_config.supervision
    common = dict(
        model=model,
        compute_seconds_per_nnz=compute_seconds_per_nnz,
        heartbeat_interval=supervision.heartbeat_interval,
        heartbeat_jitter=supervision.heartbeat_jitter,
        sanitize=bool(sanitize.enabled()),
        trace_dir=telemetry.worker_trace_dir(),
        run_id=telemetry.active_run_id(),
    )
    return [
        WorkerBootstrap(
            worker_id=worker_id,
            optimizer=copy.deepcopy(optimizer),
            compressor=compressor_factory(),
            **common,
            **shard,
        )
        for worker_id, shard in enumerate(shards)
    ]


def account_results(acc: EpochAccumulator, results, elapsed: float) -> None:
    """Worker-side accounting of one gather of ``results``.

    The workers ran in parallel, so the gather's worker time is the
    slowest one's compute + encode; the rest of its measured
    ``elapsed`` wall time is charged as network (an approximation —
    see ``docs/runtime.md``).
    """
    busy = max(r.compute_seconds + r.encode_seconds for r in results)
    acc.add_seconds("compute", busy)
    acc.add_seconds("network", max(0.0, elapsed - busy))
    acc.add_seconds("encode", sum(r.encode_seconds for r in results))
    acc.add_counts(
        bytes_sent=sum(r.message_bytes for r in results),
        raw_bytes=sum(r.message.raw_bytes for r in results),
        num_messages=len(results),
        gradient_nnz=sum(r.gradient_nnz for r in results),
    )
    acc.add_loss(sum(r.local_loss for r in results), len(results))


@contextlib.contextmanager
def aggregate(
    driver: Driver,
    acc: EpochAccumulator,
    messages,
    weights: Optional[Sequence[float]],
) -> Iterator[DriverStepResult]:
    """``driver.aggregate`` inside the ``trainer.aggregate`` glue span.

    Accounts the decode / merge / encode seconds and yields the result;
    the caller's block still runs inside the span, so broadcast
    serialization is attributed to the aggregate step.
    """
    with telemetry.span("trainer.aggregate") as span:
        result = driver.aggregate(messages, weights)
        span.set_attrs(
            decode_s=result.decode_seconds,
            aggregate_s=result.aggregate_seconds,
            encode_s=result.encode_seconds,
        )
        acc.add_seconds(
            "compute",
            result.decode_seconds
            + result.aggregate_seconds
            + result.encode_seconds,
        )
        acc.add_seconds("decode", result.decode_seconds)
        acc.add_seconds("encode", result.encode_seconds)
        yield result


def apply_update(
    optimizer,
    theta: np.ndarray,
    result: DriverStepResult,
    lr: float,
    acc: EpochAccumulator,
) -> None:
    """The driver replica applies the decoded aggregate (``trainer.apply``)."""
    with telemetry.span("trainer.apply"):
        optimizer.learning_rate = lr
        t0 = time.perf_counter()
        if result.keys.size:
            optimizer.step(theta, result.keys, result.values)
        acc.add_seconds("compute", time.perf_counter() - t0)


def finish_epoch(
    history: TrainingHistory,
    acc: EpochAccumulator,
    cluster,
    model,
    test_dataset,
    theta: np.ndarray,
) -> None:
    """Close one epoch: record it, with the test loss when
    ``test_dataset`` is given (untimed) and the workers lost so far."""
    record = EpochRecord(test_loss=None, **acc.record_fields())
    if test_dataset is not None:
        record.test_loss = model.full_loss(test_dataset, theta)
    record.dropped_workers = dict(cluster.dropped_workers)
    history.append(record)


def run_sync_rounds(
    cluster,
    driver: Driver,
    optimizer,
    theta: np.ndarray,
    history: TrainingHistory,
    *,
    model,
    test_dataset,
    epochs: int,
    base_lr: float,
    lr_schedule,
    weights: Optional[Callable[[List[int]], Sequence[float]]],
    before_round: Optional[Callable[[int, int], None]],
) -> None:
    """Run ``epochs`` synchronous epochs over ``cluster``.

    Every round steps all active members, aggregates their gradients,
    broadcasts the re-encoded aggregate and applies it to ``theta``;
    an epoch ends at the first round in which no worker has a batch
    left.  One :class:`EpochRecord` per epoch is appended to
    ``history``.

    Args:
        weights: ``None`` for the per-key mean, or a callable mapping
            the round's contributing worker ids (ascending) to one
            aggregation weight each.
        before_round: ``None``, or a callable run with ``(epoch,
            round_index)`` before each round; the fleet applies due
            membership events there.
        test_dataset: evaluated after every epoch; ``None`` skips it.
    """
    round_index = 0  # aggregated rounds so far: the lr schedule index
    protocol_round = 0  # wire round id: unique per STEP, never reused
    for epoch in range(epochs):
        acc = EpochAccumulator(epoch)
        with telemetry.context(epoch=epoch), telemetry.span("trainer.epoch"):
            cluster.start_epoch(epoch)
            while True:
                if before_round is not None:
                    before_round(epoch, round_index)
                wire_round = protocol_round
                protocol_round += 1
                with telemetry.context(round=wire_round), \
                        telemetry.span("trainer.round"):
                    t0 = time.perf_counter()
                    results = cluster.step(wire_round, base_lr)
                    elapsed = time.perf_counter() - t0
                    active = [r for r in results.values() if r.has_batch]
                    if not active:
                        break
                    account_results(acc, active, elapsed)
                    round_weights = (
                        None if weights is None
                        else weights([r.worker_id for r in active])
                    )
                    with aggregate(
                        driver, acc, [r.message for r in active],
                        round_weights,
                    ) as result:
                        lr = base_lr * lr_schedule(round_index)
                        update_bytes = cluster.encode_update(
                            result.broadcast_message
                        )
                    t1 = time.perf_counter()
                    cluster.broadcast(wire_round, lr, update_bytes)
                    acc.add_seconds("network", time.perf_counter() - t1)
                    apply_update(optimizer, theta, result, lr, acc)
                    round_index += 1
        finish_epoch(history, acc, cluster, model, test_dataset, theta)
