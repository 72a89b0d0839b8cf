"""Sketch substrates: hashing and frequency sketches."""

from .frequency import CountMinSketch, CountSketch
from .hashing import (
    HashFunction,
    MultiplyShiftHash,
    TabulationHash,
    build_hash_family,
)

__all__ = [
    "HashFunction",
    "MultiplyShiftHash",
    "TabulationHash",
    "build_hash_family",
    "CountMinSketch",
    "CountSketch",
]
