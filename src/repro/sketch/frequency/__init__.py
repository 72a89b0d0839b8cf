"""Frequency sketches (§2.4)."""

from .count_min import CountMinSketch
from .count_sketch import CountSketch

__all__ = ["CountMinSketch", "CountSketch"]
