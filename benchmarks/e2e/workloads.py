"""The five named workloads and how each is built from a seed.

All are logistic regression + Adam (lr 0.01) with
``compute_seconds_per_nnz = 0`` so every reported second is measured.
``epochs_per_10s`` sizes ``train()`` to ~8-10 s on the 2-core reference
box with BLAS pinned to one thread; a run scales it by ``--seconds``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

__all__ = ["Workload", "WORKLOADS", "Setup", "by_name", "build",
           "epochs_for", "batch_size", "scheduled_rounds"]

LEARNING_RATE = 0.01
REG_LAMBDA = 0.01
TEST_FRACTION = 0.25
#: The dataset and its train/test split are part of the workload, not of
#: the seed: ``generate_profile`` seeds differ in how learnable they are
#: (test loss 0.49-0.67 across ten of them), which would drown a 1 %
#: loss or byte regression.  ``--seed`` draws the worker partitioning,
#: the batch order and the codec's hash/sketch seeds.
DATA_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    profile: str
    scale: float
    method: str
    workers: int
    batch_fraction: float
    backend: str
    epochs_per_10s: int
    fleet: bool = False
    entropy_coding: bool = False


WORKLOADS: List[Workload] = [
    Workload(
        "small_mp",
        "~4.8k nnz/msg on mp pipes: per-message fixed cost in codec, "
        "framing and the pipe round trip dominates (the common case at "
        "scale, Fig. 11)",
        profile="kdd10", scale=1.0, method="SketchML", workers=2,
        batch_fraction=0.1, backend="mp", epochs_per_10s=40,
    ),
    Workload(
        "baseline_mp",
        "small_mp with Adam+Key (delta keys, raw values): bypasses "
        "quantizer, MinMaxSketch and entropy work; the loopback "
        "reference the paper's ratio is read against",
        profile="kdd10", scale=1.0, method="Adam+Key", workers=2,
        batch_fraction=0.1, backend="mp", epochs_per_10s=80,
    ),
    Workload(
        "large_aio",
        "~56k nnz, ~100 KB/msg on aio: per-element codec cost, transport "
        "bandwidth and CHUNK/END streaming; fixed per-message costs are "
        "negligible, so a cliff fix must leave it flat",
        profile="kdd12", scale=4.0, method="SketchML", workers=2,
        batch_fraction=0.5, backend="aio", epochs_per_10s=25,
    ),
    Workload(
        "fanin_sim",
        "FleetTrainer, 16 static workers in-process on sim: the driver "
        "decodes 16 messages serially, merges and re-encodes; "
        "driver/aggregate and decode-path work with no OS transport",
        profile="kdd12", scale=4.0, method="SketchML", workers=16,
        batch_fraction=0.1, backend="sim", epochs_per_10s=5, fleet=True,
    ),
    Workload(
        "entropy_aio",
        "Adam+Key+Quan with entropy_coding on aio: the only run with "
        "rANS on the hot path (bytes saved vs wall time); MinMaxSketch "
        "is off, so sketch work must not move it",
        profile="kdd10", scale=1.0, method="Adam+Key+Quan", workers=2,
        batch_fraction=0.1, backend="aio", epochs_per_10s=40,
        entropy_coding=True,
    ),
]


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)


def epochs_for(workload: Workload, seconds: float) -> int:
    return max(1, int(round(workload.epochs_per_10s * seconds / 10.0)))


@dataclass
class Setup:
    """Everything built before the ``train()`` call, with its timings."""

    workload: Workload
    seed: int
    epochs: int
    train: object
    test: object
    model: object
    trainer: object
    compressor_factory: object
    seconds: Dict[str, float]


def build(workload: Workload, seed: int, epochs: int) -> Setup:
    """Generate the inputs and construct the trainer (the set-up)."""
    from repro.bench.runner import method_factory
    from repro.data import generate_profile, train_test_split
    from repro.distributed import (
        DistributedTrainer,
        TrainerConfig,
        cluster2_like,
    )
    from repro.models import make_model
    from repro.optim import Adam
    from repro.runtime import RuntimeConfig

    t0 = time.perf_counter()
    dataset = generate_profile(workload.profile, seed=DATA_SEED,
                               scale=workload.scale)
    t1 = time.perf_counter()
    train, test = train_test_split(dataset, test_fraction=TEST_FRACTION,
                                   seed=DATA_SEED)
    t2 = time.perf_counter()
    model = make_model("lr", train.num_features, reg_lambda=REG_LAMBDA)
    factory = method_factory(workload.method, seed=seed)
    runtime = RuntimeConfig(backend=workload.backend,
                            entropy_coding=workload.entropy_coding)
    if workload.fleet:
        from repro.fleet import FleetConfig, FleetTrainer, MembershipSchedule

        trainer = FleetTrainer(
            model=model,
            optimizer=Adam(learning_rate=LEARNING_RATE),
            compressor_factory=factory,
            network=cluster2_like(),
            schedule=MembershipSchedule(num_workers=workload.workers),
            config=FleetConfig(
                epochs=epochs,
                batch_fraction=workload.batch_fraction,
                seed=seed,
                backend=workload.backend,
                method_label=workload.method,
            ),
            runtime=runtime,
        )
    else:
        trainer = DistributedTrainer(
            model=model,
            optimizer=Adam(learning_rate=LEARNING_RATE),
            compressor_factory=factory,
            network=cluster2_like(),
            config=TrainerConfig(
                num_workers=workload.workers,
                batch_fraction=workload.batch_fraction,
                epochs=epochs,
                seed=seed,
                method_label=workload.method,
                backend=workload.backend,
            ),
            runtime=runtime,
        )
    t3 = time.perf_counter()
    return Setup(
        workload=workload, seed=seed, epochs=epochs, train=train, test=test,
        model=model, trainer=trainer, compressor_factory=factory,
        seconds={"setup_s": t3 - t0, "data.generate_s": t1 - t0,
                 "data.split_s": t2 - t1},
    )


def shard_sizes(setup: Setup) -> List[int]:
    """Rows per worker, as both trainers partition them."""
    from repro.data.splits import partition_rows

    parts = partition_rows(setup.train.num_rows, setup.workload.workers,
                           seed=setup.seed)
    return [int(p.size) for p in parts]


def batch_size(workload: Workload, shard_rows: int) -> int:
    return max(1, int(round(shard_rows * workload.batch_fraction)))


def scheduled_rounds(setup: Setup) -> Dict[str, int]:
    """Rounds and gradient messages the configuration schedules."""
    batches = [
        -(-rows // batch_size(setup.workload, rows))
        for rows in shard_sizes(setup)
    ]
    return {
        "rounds": setup.epochs * max(batches),
        "messages": setup.epochs * sum(batches),
    }
