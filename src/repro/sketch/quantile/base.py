"""Common interface for quantile sketches.

The paper (§2.3) relies on a quantile sketch with three capabilities:

* single-pass insertion of a stream of floats,
* ``query(phi)`` returning an approximate ``phi``-quantile,
* ``merge`` so per-partition sketches can be combined on the driver.

Both of our implementations (:class:`~repro.sketch.quantile.gk.GKSummary`
and :class:`~repro.sketch.quantile.kll.KLLSketch`) satisfy this
interface; SketchML's quantizer is written against it so either can be
plugged in.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

__all__ = [
    "QuantileSketch",
    "as_float_array",
    "exact_quantiles",
    "uniform_probabilities",
]


def as_float_array(values: Iterable[float]) -> np.ndarray:
    """Coerce ``values`` to a float64 array without a ``list()`` detour.

    Arrays, lists and tuples go straight through ``np.asarray``;
    arbitrary iterables (generators, ``range``) stream through
    ``np.fromiter``.
    """
    if isinstance(values, np.ndarray):
        return values.astype(np.float64, copy=False)
    if isinstance(values, (list, tuple)):
        return np.asarray(values, dtype=np.float64)
    return np.fromiter(values, dtype=np.float64)


class QuantileSketch:
    """Abstract single-pass mergeable quantile estimator."""

    def insert(self, value: float) -> None:
        """Insert one value into the sketch."""
        raise NotImplementedError

    def insert_many(self, values: Iterable[float]) -> None:
        """Insert a batch of values (default: loop over :meth:`insert`)."""
        for value in as_float_array(values):
            self.insert(float(value))

    def insert_sorted(self, values: np.ndarray) -> None:
        """Insert a batch known to be ascending (default: insert_many).

        Subclasses with a batched build path override this; the
        quantizer sorts each sign's magnitudes once and feeds every
        sketch backend through this entry point.
        """
        self.insert_many(values)

    def query(self, phi: float) -> float:
        """Return an approximate ``phi``-quantile, ``phi`` in [0, 1]."""
        raise NotImplementedError

    def query_many(self, phis: Sequence[float]) -> List[float]:
        """Query several quantiles at once."""
        return [self.query(float(phi)) for phi in phis]

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Merge ``other`` into ``self`` and return ``self``."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Number of values inserted so far."""
        raise NotImplementedError

    @property
    def is_empty(self) -> bool:
        return len(self) == 0


def uniform_probabilities(q: int) -> np.ndarray:
    """The ``q + 1`` probabilities ``{0, 1/q, ..., 1}`` used for splits.

    Section 3.2 queries the sketch at q averaged quantiles plus the
    maximum, yielding ``q`` equi-depth buckets.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    return np.linspace(0.0, 1.0, q + 1)


def exact_quantiles(
    values: Sequence[float], phis: Sequence[float], assume_sorted: bool = False
) -> np.ndarray:
    """Exact quantiles by full sort — the O(N log N) brute force of §2.3.

    The codec's default bucket fit, and ground truth in tests.  Uses
    the "lower" interpolation so results are actual data points,
    matching sketch semantics.  Pass ``assume_sorted=True`` when the
    caller already sorted ``values`` (the quantizer sorts each sign's
    magnitudes once to encode them, so its splits are one gather).
    """
    arr = np.asarray(values, dtype=np.float64)
    if not assume_sorted:
        arr = np.sort(arr)
    if arr.size == 0:
        raise ValueError("cannot take quantiles of an empty sequence")
    phis = np.clip(np.asarray(phis, dtype=np.float64), 0.0, 1.0)
    idx = np.minimum((phis * arr.size).astype(np.int64), arr.size - 1)
    return arr[idx]
