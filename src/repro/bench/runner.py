"""Shared experiment runner used by the per-figure benchmarks.

Centralises the cross-product the evaluation section runs over: a
dataset profile × a model × a compression method × a worker count,
trained for a few epochs on the simulated cluster.  Results are cached
per-process so that e.g. Fig. 9 (epoch time) and Fig. 10 (loss curves)
share one training run per combination, as they do in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from ..compression.base import GradientCompressor
from ..compression.identity import IdentityCompressor
from ..compression.zipml import ZipMLCompressor
from ..core.compressor import SketchMLCompressor
from ..core.config import SketchMLConfig
from ..data.splits import train_test_split
from ..data.synthetic import generate_profile
from ..distributed.metrics import TrainingHistory
from ..distributed.network import NetworkModel, cluster1_like, cluster2_like
from ..distributed.trainer import DistributedTrainer, TrainerConfig
from ..models import make_model
from ..optim.optimizers import Adam

__all__ = [
    "ExperimentSpec",
    "method_factory",
    "load_split",
    "run_experiment",
    "METHOD_LABELS",
]

#: Canonical method names used across all figure benches.
METHOD_LABELS = ("SketchML", "Adam", "ZipML")


def method_factory(
    method: str, seed: int = 0, **overrides
) -> Callable[[], GradientCompressor]:
    """Compressor factory for a paper method name.

    Supported: ``Adam`` (no compression, double), ``Adam-float``,
    ``ZipML`` (16-bit, the paper's tuned setting), ``ZipML-8bit``,
    ``SketchML`` (full pipeline), and the Fig. 8 ablation stages
    ``Adam+Key`` / ``Adam+Key+Quan`` / ``Adam+Key+Quan+MinMax``.
    """
    if method == "Adam":
        return lambda: IdentityCompressor(value_bytes=8)
    if method == "Adam-float":
        return lambda: IdentityCompressor(value_bytes=4)
    if method == "ZipML":
        return lambda: ZipMLCompressor(bits=16)
    if method == "ZipML-8bit":
        return lambda: ZipMLCompressor(bits=8)
    if method in ("SketchML", "Adam+Key+Quan+MinMax"):
        config = SketchMLConfig.full(seed=seed, **overrides)
        return lambda: SketchMLCompressor(config)
    if method == "Adam+Key":
        config = SketchMLConfig.keys_only(seed=seed)
        return lambda: SketchMLCompressor(config)
    if method == "Adam+Key+Quan":
        config = SketchMLConfig.keys_and_quantization(seed=seed, **overrides)
        return lambda: SketchMLCompressor(config)
    raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=8)
def load_split(profile: str, scale: float = 1.0, seed: int = 0):
    """Generate + split a synthetic dataset once per process."""
    dataset = generate_profile(profile, seed=seed, scale=scale)
    return train_test_split(dataset, test_fraction=0.25, seed=seed)


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of the evaluation cross-product.

    Attributes mirror §4.1's protocol; ``scale`` shrinks the synthetic
    dataset for fast benches, and ``learning_rate`` defaults to the
    grid-searched value used across the suite.  ``backend`` selects the
    execution substrate (``sim`` keeps the figure-benchmark cost model;
    ``mp`` / ``aio`` run real worker processes), and the ``fault_*`` /
    supervision fields configure the runtime's seeded fault injection —
    they are ignored on the ``sim`` backend.

    ``elastic_schedule`` (a ``repro-fleet-schedule/1`` JSON path) and
    ``staleness`` route the run through
    :class:`repro.fleet.FleetTrainer` instead of the fixed-membership
    trainer; a schedule's ``num_workers`` overrides ``num_workers``
    (the booted universe).
    """

    profile: str = "kdd12"
    model: str = "lr"
    method: str = "SketchML"
    num_workers: int = 10
    epochs: int = 5
    batch_fraction: float = 0.1
    learning_rate: float = 0.01
    reg_lambda: float = 0.01
    scale: float = 1.0
    seed: int = 0
    cluster: str = "cluster2"
    compute_seconds_per_nnz: float = 3e-4
    bandwidth_override: float = 0.0
    sketch_overrides: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)
    backend: str = "sim"
    fault_drop_rate: float = 0.0
    fault_delay_rate: float = 0.0
    fault_duplicate_rate: float = 0.0
    fault_corrupt_rate: float = 0.0
    fault_seed: int = 0
    straggler_policy: str = "fail_fast"
    message_timeout: float = 10.0
    max_retries: int = 3
    elastic_schedule: Optional[str] = None
    staleness: Optional[int] = None
    entropy_coding: bool = False
    chunk_bytes: Optional[int] = None

    def network(self) -> NetworkModel:
        if self.bandwidth_override:
            return NetworkModel(
                bandwidth_bytes_per_sec=self.bandwidth_override, latency_sec=2e-3
            )
        if self.cluster == "cluster1":
            return cluster1_like()
        if self.cluster == "cluster2":
            return cluster2_like()
        raise ValueError(f"unknown cluster {self.cluster!r}")

    def runtime(self):
        """The :class:`repro.runtime.RuntimeConfig` for real backends
        (``None`` on the simulated path)."""
        if self.backend == "sim":
            return None
        from ..runtime import FaultConfig, RuntimeConfig, SupervisionConfig

        faults = None
        if (
            self.fault_drop_rate or self.fault_delay_rate
            or self.fault_duplicate_rate or self.fault_corrupt_rate
        ):
            faults = FaultConfig(
                seed=self.fault_seed,
                drop_rate=self.fault_drop_rate,
                delay_rate=self.fault_delay_rate,
                duplicate_rate=self.fault_duplicate_rate,
                corrupt_rate=self.fault_corrupt_rate,
            )
        wire = {}
        if self.entropy_coding:
            wire["entropy_coding"] = True
        if self.chunk_bytes is not None:
            wire["chunk_bytes"] = int(self.chunk_bytes)
        return RuntimeConfig(
            backend=self.backend,
            supervision=SupervisionConfig(
                message_timeout=self.message_timeout,
                max_retries=self.max_retries,
                straggler_policy=self.straggler_policy,
                seed=self.seed,
            ),
            faults=faults,
            **wire,
        )


_RESULT_CACHE: Dict[ExperimentSpec, TrainingHistory] = {}


def run_experiment(
    spec: ExperimentSpec, use_cache: bool = True
) -> TrainingHistory:
    """Train one (dataset, model, method, workers) combination.

    Returns the full :class:`TrainingHistory`; identical specs are
    served from a per-process cache so figure benches that share a run
    (e.g. Fig. 9 and Fig. 10) pay for it once.
    """
    if use_cache and spec in _RESULT_CACHE:
        return _RESULT_CACHE[spec]
    train, test = load_split(spec.profile, scale=spec.scale, seed=spec.seed)
    model = make_model(spec.model, train.num_features, reg_lambda=spec.reg_lambda)
    factory = method_factory(
        spec.method, seed=spec.seed, **dict(spec.sketch_overrides)
    )
    if spec.elastic_schedule is not None or spec.staleness is not None:
        from ..fleet import FleetConfig, FleetTrainer, MembershipSchedule

        if spec.elastic_schedule is not None:
            schedule = MembershipSchedule.load(spec.elastic_schedule)
        else:
            # --stale alone: bounded-async over a static full membership.
            schedule = MembershipSchedule(num_workers=spec.num_workers)
        fleet = FleetTrainer(
            model=model,
            optimizer=Adam(learning_rate=spec.learning_rate),
            compressor_factory=factory,
            network=spec.network(),
            schedule=schedule,
            config=FleetConfig(
                epochs=spec.epochs,
                batch_fraction=spec.batch_fraction,
                seed=spec.seed,
                backend=spec.backend,
                staleness=spec.staleness,
                method_label=spec.method,
                compute_seconds_per_nnz=spec.compute_seconds_per_nnz,
            ),
            runtime=spec.runtime(),
        )
        history = fleet.train(train, test)
        if use_cache:
            _RESULT_CACHE[spec] = history
        return history
    trainer = DistributedTrainer(
        model=model,
        optimizer=Adam(learning_rate=spec.learning_rate),
        compressor_factory=factory,
        network=spec.network(),
        config=TrainerConfig(
            num_workers=spec.num_workers,
            batch_fraction=spec.batch_fraction,
            epochs=spec.epochs,
            seed=spec.seed,
            method_label=spec.method,
            compute_seconds_per_nnz=spec.compute_seconds_per_nnz,
            backend=spec.backend,
        ),
        runtime=spec.runtime(),
    )
    history = trainer.train(train, test)
    if use_cache:
        _RESULT_CACHE[spec] = history
    return history


def clear_cache() -> None:
    """Drop cached experiment results (tests use this for isolation)."""
    _RESULT_CACHE.clear()
    load_split.cache_clear()
