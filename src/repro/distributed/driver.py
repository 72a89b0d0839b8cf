"""Simulated driver (Spark driver / parameter aggregator).

The driver decompresses worker messages, averages the sparse gradients,
re-compresses the aggregate for broadcast, and applies the optimizer
step.  Decode/aggregate/encode times are measured; the broadcast wire
time is charged by the trainer through the network model.

Design note — what travels back down: the paper says the driver
"broadcasts the updated model", but for a 29M–58M-dimension model an
uncompressed dense broadcast would cost the same for every method and
erase the reported 10× end-to-end gaps; the prototype necessarily sends
the *sparse aggregated update* compressed with the same codec.  We do
the same, and all replicas (driver included) apply the *decompressed*
aggregate so every copy of the model stays bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..compression.base import CompressedGradient, GradientCompressor
from ..data.sparse import sum_by_key

__all__ = ["Driver", "DriverStepResult", "aggregate_sparse_gradients"]


def aggregate_sparse_gradients(
    gradients: Sequence[Tuple[np.ndarray, np.ndarray]],
    weights: Optional[Sequence[float]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Average sparse gradients: union of keys, per-key mean over workers.

    Each worker's gradient is already the mean over its own batch.
    With ``weights=None`` the global mini-batch is a disjoint union of
    (near-)equal shards, so the aggregate divides the per-key sums by
    the worker count — the classic fixed-membership path, byte-for-byte
    unchanged.  Elastic runs pass explicit ``weights`` (one per
    gradient, summing to 1 — shard-size fractions over the surviving
    membership) and the aggregate is the weighted sum ``Σ wᵢ gᵢ``; with
    equal shards that reduces to the same mean.
    """
    if not gradients:
        raise ValueError("nothing to aggregate")
    num_workers = len(gradients)
    all_keys = np.concatenate([keys for keys, _ in gradients])
    if weights is None:
        all_values = np.concatenate([values for _, values in gradients])
    else:
        if len(weights) != num_workers:
            raise ValueError(
                f"{len(weights)} weights for {num_workers} gradients"
            )
        all_values = np.concatenate(
            [
                np.asarray(values, dtype=np.float64) * float(w)
                for (_, values), w in zip(gradients, weights)
            ]
        )
    keys, summed = sum_by_key(all_keys, all_values)
    if weights is None:
        summed /= num_workers
    return keys, summed


@dataclass
class DriverStepResult:
    """Output of one driver aggregation round."""

    keys: np.ndarray
    values: np.ndarray
    broadcast_message: CompressedGradient
    decode_seconds: float
    aggregate_seconds: float
    encode_seconds: float


class Driver:
    """Aggregation endpoint of the simulated cluster.

    Args:
        compressor: the driver's compressor instance (used both to
            decode worker messages and to encode the broadcast).
        dimension: model parameter count.
    """

    def __init__(self, compressor: GradientCompressor, dimension: int) -> None:
        self.compressor = compressor
        self.dimension = int(dimension)

    def aggregate(
        self,
        messages: Sequence[CompressedGradient],
        weights: Optional[Sequence[float]] = None,
    ) -> DriverStepResult:
        """Decode all worker messages, average, re-encode for broadcast.

        ``weights`` re-weights the aggregate over an uneven membership
        (elastic runs); ``None`` is the classic per-key mean.
        """
        t0 = time.perf_counter()
        gradients: List[Tuple[np.ndarray, np.ndarray]] = [
            self.compressor.decompress(message) for message in messages
        ]
        t1 = time.perf_counter()
        keys, values = aggregate_sparse_gradients(gradients, weights)
        t2 = time.perf_counter()
        broadcast = self.compressor.compress(keys, values, self.dimension)
        # Replicas apply exactly what they can decode, so the driver
        # decodes its own broadcast too — model copies stay identical.
        keys, values = self.compressor.decompress(broadcast)
        t3 = time.perf_counter()
        return DriverStepResult(
            keys=keys,
            values=values,
            broadcast_message=broadcast,
            decode_seconds=t1 - t0,
            aggregate_seconds=t2 - t1,
            encode_seconds=t3 - t2,
        )

    def __repr__(self) -> str:
        return f"Driver(dimension={self.dimension})"
