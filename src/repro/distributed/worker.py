"""Simulated worker (Spark executor).

Each worker owns a row partition of the training set, computes the
mini-batch gradient over its next batch slice, and compresses it with
its own compressor instance (compressors may be stateful, e.g. error
feedback).  Compute and encode times are *measured* (they are real work
on this machine); only the wire is simulated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..compression.base import CompressedGradient, GradientCompressor
from ..models.base import Model

__all__ = ["Worker", "WorkerStepResult"]


@dataclass
class WorkerStepResult:
    """Output of one worker's compute+encode step."""

    message: CompressedGradient
    local_loss: float
    compute_seconds: float
    encode_seconds: float
    gradient_nnz: int


class Worker:
    """One data-parallel worker.

    Args:
        worker_id: stable id (seeds the batch shuffling).
        dataset: the worker's *partition* (already subset).
        model: shared model definition (stateless).
        compressor: this worker's compressor instance.
        batch_size: rows per mini-batch drawn from the partition.
        seed: base seed for batch order shuffling.
    """

    def __init__(
        self,
        worker_id: int,
        dataset,
        model: Model,
        compressor: GradientCompressor,
        batch_size: int,
        seed: int = 0,
        compute_seconds_per_nnz: float = 0.0,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if compute_seconds_per_nnz < 0:
            raise ValueError("compute_seconds_per_nnz must be non-negative")
        self.worker_id = int(worker_id)
        self.dataset = dataset
        self.model = model
        self.compressor = compressor
        self.batch_size = int(batch_size)
        self.compute_seconds_per_nnz = float(compute_seconds_per_nnz)
        self._rng = np.random.default_rng(seed + 1_000_003 * worker_id)
        self._batch_iter = None

    # ------------------------------------------------------------------
    def start_epoch(self) -> None:
        """Reshuffle and restart batch iteration for a new epoch."""
        self._batch_iter = self.dataset.iter_batches(self.batch_size, self._rng)

    def next_batch(self) -> Optional[np.ndarray]:
        """Row indexes of the next mini-batch, or None at epoch end."""
        if self._batch_iter is None:
            self.start_epoch()
        try:
            return next(self._batch_iter)
        except StopIteration:
            self._batch_iter = None
            return None

    @property
    def batches_per_epoch(self) -> int:
        return -(-self.dataset.num_rows // self.batch_size)

    # ------------------------------------------------------------------
    def compute_step(
        self, rows: np.ndarray, theta: np.ndarray
    ) -> WorkerStepResult:
        """Gradient + compression for one batch.

        Gradient and encode times are measured; on top of the measured
        time, ``compute_seconds_per_nnz * batch_nnz`` of *modelled*
        compute is charged (per nonzero, so denser rows cost more — the
        reason the paper's CTR speedups are smaller than KDD12's).  The model term calibrates the
        compute/communication ratio to the paper's testbed regime — our
        synthetic rows are ~10³× fewer than the paper's, so measured
        Python compute alone would make every workload look
        network-bound (see DESIGN.md §2).
        """
        t0 = time.perf_counter()
        keys, values, loss = self.model.batch_gradient(self.dataset, rows, theta)
        t1 = time.perf_counter()
        message = self.compressor.compress(
            keys, values, self.model.num_parameters
        )
        t2 = time.perf_counter()
        modelled = self.compute_seconds_per_nnz * self._batch_nnz(rows)
        return WorkerStepResult(
            message=message,
            local_loss=loss,
            compute_seconds=(t1 - t0) + modelled,
            encode_seconds=t2 - t1,
            gradient_nnz=keys.size,
        )

    def _batch_nnz(self, rows: np.ndarray) -> int:
        """Nonzeros in the batch (dense datasets count every cell)."""
        indptr = getattr(self.dataset, "indptr", None)
        if indptr is not None:
            return int((indptr[rows + 1] - indptr[rows]).sum())
        return int(rows.size * self.dataset.num_features)

    def __repr__(self) -> str:
        return (
            f"Worker(id={self.worker_id}, rows={self.dataset.num_rows}, "
            f"batch={self.batch_size})"
        )
