"""Generic error-feedback wrapper (EF-SGD, Karimireddy et al. 2019).

Wraps *any* lossy gradient compressor: the difference between what was
meant and what the receiver will decode is remembered per dimension and
added to the next gradient before compression.  This turns biased
compressors into asymptotically unbiased ones and is the standard
companion of aggressive quantization.

Relevant to SketchML because the MinMaxSketch error is *systematically*
one-sided (decay): error feedback re-injects exactly the decayed mass,
so a wrapped SketchML at a small bucket count converges like a larger
one — an extension the paper's future-work direction (compensating
vanishing gradients) points at.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..data.sparse import sum_by_key
from .base import CompressedGradient, GradientCompressor, validate_sparse_gradient

__all__ = ["ErrorFeedbackCompressor"]


class ErrorFeedbackCompressor(GradientCompressor):
    """Residual-carrying wrapper around a lossy compressor.

    Args:
        inner: the compressor to wrap (any :class:`GradientCompressor`).
        decay: multiplier on carried residuals (1.0 = classic EF;
            slightly below 1 damps stale residuals).

    The wrapper is stateful per instance — use one per worker, exactly
    like other stateful codecs in this library.
    """

    name = "error-feedback"

    def __init__(self, inner: GradientCompressor, decay: float = 1.0) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.inner = inner
        self.decay = float(decay)
        self._residual: Dict[int, float] = {}

    def reset(self) -> None:
        self._residual.clear()
        self.inner.reset()

    def compress(
        self, keys: np.ndarray, values: np.ndarray, dimension: int
    ) -> CompressedGradient:
        keys, values = validate_sparse_gradient(keys, values, dimension)
        if self._residual:
            # Merge carried residuals into this gradient (union of keys).
            residual_keys = np.fromiter(
                self._residual.keys(), dtype=np.int64, count=len(self._residual)
            )
            residual_vals = np.fromiter(
                self._residual.values(), dtype=np.float64, count=len(self._residual)
            )
            keys, values = sum_by_key(
                np.concatenate([keys, residual_keys]),
                np.concatenate([values, self.decay * residual_vals]),
            )
            nonzero = values != 0.0
            keys, values = keys[nonzero], values[nonzero]
        message = self.inner.compress(keys, values, dimension)
        decoded_keys, decoded_values = self.inner.decompress(message)
        # New residual: intended minus decodable.
        decoded = dict(zip(decoded_keys.tolist(), decoded_values.tolist()))
        self._residual = {}
        for key, value in zip(keys.tolist(), values.tolist()):
            r = value - decoded.get(key, 0.0)
            if r != 0.0:
                self._residual[key] = r
        return message

    def decompress(self, message: CompressedGradient) -> Tuple[np.ndarray, np.ndarray]:
        return self.inner.decompress(message)

    @property
    def residual_l2(self) -> float:
        """Norm of the currently carried residual (diagnostics)."""
        if not self._residual:
            return 0.0
        return float(np.linalg.norm(list(self._residual.values())))

    def __repr__(self) -> str:
        return f"ErrorFeedbackCompressor(inner={self.inner!r}, decay={self.decay})"
