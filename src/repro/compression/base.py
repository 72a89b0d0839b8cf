"""Gradient compressor interface shared by SketchML and all baselines.

A *gradient* throughout this library is a sparse vector in key–value
form: a strictly ascending int64 ``keys`` array (nonzero dimensions) and
a parallel float64 ``values`` array, plus the model dimension ``D``.

A :class:`GradientCompressor` turns that pair into a
:class:`CompressedGradient` — an object that knows its size — and back.
The distributed trainer charges the network model with
``message.num_bytes``, so the byte accounting *is* the experiment.  For
the SketchML family that size is measured: the length of the payload-v2
wire bytes (:mod:`repro.core.serialization`).  The baselines have no
wire format, so theirs is modelled by a declared formula (headers and
metadata included).

Compressors are registered by name (:func:`register_compressor` /
:func:`make_compressor`) so benchmarks can be driven from strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

import numpy as np

__all__ = [
    "CompressedGradient",
    "GradientCompressor",
    "register_compressor",
    "make_compressor",
    "available_compressors",
    "validate_sparse_gradient",
]

#: Paper's accounting for an uncompressed pair: 4-byte int key + 8-byte
#: double value = 12 bytes per nonzero element (§3.5).
BYTES_PER_RAW_KEY = 4
BYTES_PER_RAW_VALUE = 8


@dataclass
class CompressedGradient:
    """A compressed gradient message and its size.

    Attributes:
        payload: compressor-specific opaque content.
        num_bytes: size charged to the network.  For SketchML-family
            messages it is the payload-v2 wire length; for the
            baselines (no wire format) it is modelled by a formula.
        dimension: model dimension ``D`` of the original gradient.
        nnz: number of nonzero entries in the original gradient.
        breakdown: optional per-component split of ``num_bytes`` (keys /
            values / sketch / metadata), used by the Fig. 8(b) bench.
    """

    payload: Any
    num_bytes: int
    dimension: int
    nnz: int
    breakdown: Dict[str, int] = field(default_factory=dict)

    @property
    def raw_bytes(self) -> int:
        """Size of the uncompressed message (12 bytes per pair)."""
        return self.nnz * (BYTES_PER_RAW_KEY + BYTES_PER_RAW_VALUE)

    @property
    def compression_rate(self) -> float:
        """``raw_bytes / num_bytes`` — the paper's compression rate."""
        if self.num_bytes == 0:
            return float("inf")
        return self.raw_bytes / self.num_bytes


def validate_sparse_gradient(
    keys: np.ndarray, values: np.ndarray, dimension: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and canonicalise a sparse gradient.

    Ensures keys are 1-D, strictly ascending, within ``[0, dimension)``
    and values are finite floats of the same length.
    """
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if keys.ndim != 1 or values.ndim != 1:
        raise ValueError("keys and values must be 1-D arrays")
    if keys.shape != values.shape:
        raise ValueError(
            f"keys and values must be parallel: {keys.shape} vs {values.shape}"
        )
    if dimension <= 0:
        raise ValueError(f"dimension must be positive, got {dimension}")
    if keys.size:
        if keys.min() < 0 or keys.max() >= dimension:
            raise ValueError(f"keys must lie in [0, {dimension})")
        if keys.size > 1 and np.any(np.diff(keys) <= 0):
            raise ValueError("keys must be strictly ascending")
        if not np.all(np.isfinite(values)):
            raise ValueError("gradient values must be finite")
    return keys, values


class GradientCompressor:
    """Abstract base class for gradient compressors.

    Subclasses implement :meth:`compress` and :meth:`decompress`; both
    directions run on every simulated message, so they should be
    vectorised.  A compressor may be stateful across calls (e.g. error
    feedback in :class:`~repro.compression.onebit.OneBitCompressor`);
    stateless compressors are reusable across workers.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    def compress(
        self, keys: np.ndarray, values: np.ndarray, dimension: int
    ) -> CompressedGradient:
        """Compress a sparse gradient into a message."""
        raise NotImplementedError

    def decompress(
        self, message: CompressedGradient
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Recover ``(keys, values)`` from a message.

        Keys are exact for every compressor in this library (the paper
        requires lossless keys); values may be approximate.
        """
        raise NotImplementedError

    def roundtrip(
        self, keys: np.ndarray, values: np.ndarray, dimension: int
    ) -> Tuple[np.ndarray, np.ndarray, CompressedGradient]:
        """Compress then decompress; returns ``(keys, values, message)``."""
        message = self.compress(keys, values, dimension)
        out_keys, out_values = self.decompress(message)
        return out_keys, out_values, message

    def reset(self) -> None:
        """Clear any cross-iteration state (default: nothing to clear)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


_REGISTRY: Dict[str, Callable[..., GradientCompressor]] = {}


def register_compressor(
    name: str,
) -> Callable[[Callable[..., GradientCompressor]], Callable[..., GradientCompressor]]:
    """Class decorator registering a compressor factory under ``name``."""

    def decorator(factory: Callable[..., GradientCompressor]):
        if name in _REGISTRY:
            raise ValueError(f"compressor {name!r} already registered")
        _REGISTRY[name] = factory
        return factory

    return decorator


def make_compressor(name: str, **kwargs: Any) -> GradientCompressor:
    """Instantiate a registered compressor by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown compressor {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def available_compressors() -> Tuple[str, ...]:
    """Names of all registered compressors."""
    return tuple(sorted(_REGISTRY))
