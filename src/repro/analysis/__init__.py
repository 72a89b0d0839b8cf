"""Gradient and compressor analytics for the experiment harness.

* :func:`profile_gradient` — Fig. 4-style statistics of one sparse
  gradient (near-zero share, uniformity, concentration, bytes/key).
* :func:`compare_compressors` / :func:`format_report` — every codec
  side by side on one gradient (``python -m repro compare``).
* :func:`dataset_stats` — Table-1 style dataset summary plus feature
  skew measures.
"""

from .compression_report import (
    CompressorReportRow,
    compare_compressors,
    format_report,
)
from .dataset_stats import DatasetStats, dataset_stats
from .gradient_stats import GradientProfile, histogram, profile_gradient

__all__ = [
    "GradientProfile",
    "profile_gradient",
    "histogram",
    "CompressorReportRow",
    "compare_compressors",
    "format_report",
    "DatasetStats",
    "dataset_stats",
]
