"""SketchML with real bytes on the wire.

:class:`WireSketchMLCompressor` runs the normal SketchML pipeline and
then *actually serialises* every message with
:mod:`repro.core.serialization` at payload version 2 — the version
every runtime backend negotiates by default, so the size is what the
runtime ships: the payload handed to the network is a byte string,
``num_bytes`` is its true length (framing included), and
decompression starts from those bytes.  Using it in the distributed
trainer makes the whole simulation's byte accounting exact rather than
modelled — the honest-mode variant used to validate that the accounting
model in :class:`~repro.core.compressor.SketchMLCompressor` tracks
reality (they agree within the framing overhead; see
``tests/test_wire_compressor.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..compression.base import (
    CompressedGradient,
    GradientCompressor,
    register_compressor,
)
from .compressor import SketchMLCompressor
from .config import SketchMLConfig
from .serialization import (
    PAYLOAD_VERSION_V2,
    deserialize_message,
    serialize_message,
)

__all__ = ["WireSketchMLCompressor"]


@register_compressor("sketchml-wire")
class WireSketchMLCompressor(GradientCompressor):
    """SketchML whose messages are genuine serialised byte strings.

    Args:
        config: configuration for the inner pipeline.
    """

    name = "sketchml-wire"

    def __init__(self, config: Optional[SketchMLConfig] = None) -> None:
        self._inner = SketchMLCompressor(config)

    @property
    def config(self) -> SketchMLConfig:
        return self._inner.config

    def reset(self) -> None:
        self._inner.reset()

    def compress(
        self, keys: np.ndarray, values: np.ndarray, dimension: int
    ) -> CompressedGradient:
        message = self._inner.compress(keys, values, dimension)
        wire = serialize_message(message, version=PAYLOAD_VERSION_V2)
        return CompressedGradient(
            payload=wire,
            num_bytes=len(wire),
            dimension=message.dimension,
            nnz=message.nnz,
            breakdown={"wire": len(wire)},
        )

    def decompress(self, message: CompressedGradient) -> Tuple[np.ndarray, np.ndarray]:
        if not isinstance(message.payload, (bytes, bytearray)):
            raise TypeError("message was not produced by WireSketchMLCompressor")
        rebuilt = deserialize_message(bytes(message.payload))
        return self._inner.decompress(rebuilt)

    def __repr__(self) -> str:
        return f"WireSketchMLCompressor(config={self.config.ablation_label!r})"
