"""Configuration for the SketchML compressor.

Defaults follow §4.1 and Appendix B.2 of the paper: quantile size 128
(Table 3's default; 256 is the studied variant), MinMaxSketch with 2
rows and ``d/5`` columns, ``r = 8`` index groups.  The three ``enable_*`` flags reproduce the
Figure 8 ablation stack:

* ``Adam``                      — all three disabled (identity codec).
* ``Adam+Key``                  — ``enable_delta_keys`` only.
* ``Adam+Key+Quan``             — + ``enable_quantization``.
* ``Adam+Key+Quan+MinMax``      — + ``enable_minmax`` (full SketchML).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

from .minmax_sketch import GROUP_SEED_STRIDE, NEGATIVE_SIGN_SEED_OFFSET

__all__ = ["SketchMLConfig"]


@dataclass(frozen=True)
class SketchMLConfig:
    """Hyper-parameters of :class:`~repro.core.compressor.SketchMLCompressor`.

    Attributes:
        num_buckets: quantile bucket count ``q`` (1 byte/value at 256).
            The bucket splits are exact quantiles read off the sort the
            encoder already does (ε = 0), where the paper builds a
            quantile sketch.
        minmax_rows: hash rows ``s`` per group sketch (default 2; at
            most 255, the sketch header's one-byte field).
        minmax_cols_factor: total bins ``t`` as a fraction of the
            gradient's nnz ``d`` (default 1/5, the paper's ``d/5``).
        minmax_min_cols: lower bound on total bins so tiny gradients
            still get a usable sketch.
        num_groups: bucket groups ``r`` (default 8; max index error q/r;
            at most 255, the grouped header's one-byte field).
        enable_delta_keys: compress keys with delta-binary encoding.
        enable_quantization: quantile-bucket quantify the values.
        enable_minmax: push bucket indexes through MinMaxSketches.
        pack_index_bits: in the Adam+Key+Quan path, pack bucket indexes
            at ``ceil(log2(q))`` bits instead of whole bytes (§3.2's
            "binary encode" taken to the bit level; saves 1/8 at the
            default q=128).
        compensate_decay: measure, at encode time, how much the
            MinMaxSketch round-trip decays this gradient's mean
            magnitude, and ship the correction scale (8 bytes) so the
            decoder can multiply it back.  §3.3's "compensate the
            vanishing of gradients" implemented at the codec layer
            instead of relying solely on Adam.
        hash_family: hash family for the MinMaxSketch rows.
        seed: master seed shared by encoder and decoder.  Non-negative,
            and small enough that every sketch seed derived from it
            fits the sketch header's signed 64-bit field.
        sanitize: run the :mod:`repro.sanitize` invariant checks on
            every encode/decode through this compressor, regardless of
            the ``REPRO_SANITIZE`` environment variable (sign
            preservation, one-sided index error, index/group bounds,
            strictly-ascending keys, decay-scale clamp).
    """

    # The e2e probe reads these two; ROADMAP item 1's benchmark PR removes them.
    quantile_sketch: ClassVar[str] = "exact"
    quantile_sketch_size: ClassVar[int] = 128

    num_buckets: int = 128
    minmax_rows: int = 2
    minmax_cols_factor: float = 0.2
    minmax_min_cols: int = 64
    num_groups: int = 8
    enable_delta_keys: bool = True
    enable_quantization: bool = True
    enable_minmax: bool = True
    pack_index_bits: bool = False
    compensate_decay: bool = False
    hash_family: str = "multiply_shift"
    seed: int = 0
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.num_buckets < 2:
            raise ValueError("num_buckets must be >= 2")
        if not 0 < self.minmax_rows <= 255:
            raise ValueError("minmax_rows must lie in [1, 255]")
        if not (math.isfinite(self.minmax_cols_factor) and self.minmax_cols_factor > 0):
            raise ValueError("minmax_cols_factor must be finite and positive")
        if not 0 < self.num_groups <= 255:
            raise ValueError("num_groups must lie in [1, 255]")
        # The sketch header carries each seed as int64; the largest one
        # is the negative sign's last group.
        max_seed = 2**63 - 1 - NEGATIVE_SIGN_SEED_OFFSET - GROUP_SEED_STRIDE * (
            self.num_groups - 1
        )
        if not 0 <= self.seed <= max_seed:
            raise ValueError(
                f"seed must lie in [0, {max_seed}] so every derived sketch "
                "seed fits int64"
            )
        if self.enable_minmax and not self.enable_quantization:
            raise ValueError(
                "enable_minmax requires enable_quantization (the sketch "
                "stores bucket indexes)"
            )

    # ------------------------------------------------------------------
    # Figure 8 ablation presets
    # ------------------------------------------------------------------
    @classmethod
    def adam(cls, **overrides) -> "SketchMLConfig":
        """No compression at all (baseline 'Adam' bar of Fig. 8)."""
        return cls(
            enable_delta_keys=False,
            enable_quantization=False,
            enable_minmax=False,
            **overrides,
        )

    @classmethod
    def keys_only(cls, **overrides) -> "SketchMLConfig":
        """Delta-binary keys, raw float values ('Adam+Key')."""
        return cls(
            enable_delta_keys=True,
            enable_quantization=False,
            enable_minmax=False,
            **overrides,
        )

    @classmethod
    def keys_and_quantization(cls, **overrides) -> "SketchMLConfig":
        """Delta keys + bucket-index values, no sketch ('Adam+Key+Quan')."""
        return cls(
            enable_delta_keys=True,
            enable_quantization=True,
            enable_minmax=False,
            **overrides,
        )

    @classmethod
    def full(cls, **overrides) -> "SketchMLConfig":
        """The complete SketchML pipeline ('Adam+Key+Quan+MinMax')."""
        return cls(**overrides)

    def with_overrides(self, **overrides) -> "SketchMLConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def minmax_total_bins(self, nnz: int) -> int:
        """Total MinMaxSketch bins ``t`` for a gradient with ``nnz`` pairs."""
        return max(self.minmax_min_cols, int(nnz * self.minmax_cols_factor))

    @property
    def ablation_label(self) -> str:
        """Figure 8's bar label for this flag combination."""
        if not self.enable_delta_keys and not self.enable_quantization:
            return "Adam"
        if not self.enable_quantization:
            return "Adam+Key"
        if not self.enable_minmax:
            return "Adam+Key+Quan"
        return "Adam+Key+Quan+MinMax"
