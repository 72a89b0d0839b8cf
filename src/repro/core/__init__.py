"""SketchML core: the paper's primary contribution (§3).

* :class:`QuantileBucketQuantizer` — §3.2 quantile-bucket quantification.
* :class:`MinMaxSketch` / :class:`GroupedMinMaxSketch` — §3.3.
* :func:`encode_keys` / :func:`decode_keys` — §3.4 delta-binary keys;
  :mod:`repro.core.rice` — payload v2's block-adaptive Rice keys.
* :class:`SketchMLCompressor` — the end-to-end pipeline of Figure 2.
"""

from .compressor import SketchMLCompressor, SketchMLPayload, SignPart
from .config import SketchMLConfig
from .delta_encoding import (
    DeltaKeyStats,
    decode_keys,
    delta_key_stats,
    encode_keys,
)
from .minmax_sketch import GroupedMinMaxSketch, MinMaxSketch
from .quantizer import QuantileBucketQuantizer, SignedBuckets
from .serialization import (
    SerializationError,
    deserialize_message,
    serialize_message,
)

__all__ = [
    "SketchMLCompressor",
    "SketchMLPayload",
    "SignPart",
    "SketchMLConfig",
    "QuantileBucketQuantizer",
    "SignedBuckets",
    "MinMaxSketch",
    "GroupedMinMaxSketch",
    "encode_keys",
    "decode_keys",
    "delta_key_stats",
    "DeltaKeyStats",
    "serialize_message",
    "deserialize_message",
    "SerializationError",
]
