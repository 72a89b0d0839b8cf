"""Gradient compressors: SketchML's competitors and the codec registry.

The SketchML compressor itself lives in :mod:`repro.core` but registers
into the same registry under the name ``"sketchml"``.
"""

from .base import (
    BYTES_PER_RAW_KEY,
    BYTES_PER_RAW_VALUE,
    CompressedGradient,
    GradientCompressor,
    available_compressors,
    make_compressor,
    register_compressor,
    validate_sparse_gradient,
)
from .error_feedback import ErrorFeedbackCompressor
from .float16 import Float16Compressor
from .hybrid import HeavyHitterSketchMLCompressor
from .identity import IdentityCompressor
from .lossless import (
    BitmapKeyCodec,
    BlockRiceKeyCodec,
    DeltaBinaryKeyCodec,
    HuffmanDeltaKeyCodec,
    KeyCodec,
    RawKeyCodec,
    RunLengthKeyCodec,
    VarintKeyCodec,
    all_key_codecs,
)
from .onebit import OneBitCompressor
from .qsgd import QSGDCompressor
from .topk import TopKCompressor
from .zipml import ZipMLCompressor

__all__ = [
    "CompressedGradient",
    "GradientCompressor",
    "register_compressor",
    "make_compressor",
    "available_compressors",
    "validate_sparse_gradient",
    "BYTES_PER_RAW_KEY",
    "BYTES_PER_RAW_VALUE",
    "IdentityCompressor",
    "ZipMLCompressor",
    "OneBitCompressor",
    "TopKCompressor",
    "Float16Compressor",
    "QSGDCompressor",
    "HeavyHitterSketchMLCompressor",
    "ErrorFeedbackCompressor",
    "KeyCodec",
    "BlockRiceKeyCodec",
    "DeltaBinaryKeyCodec",
    "RawKeyCodec",
    "VarintKeyCodec",
    "RunLengthKeyCodec",
    "HuffmanDeltaKeyCodec",
    "BitmapKeyCodec",
    "all_key_codecs",
]
