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

from dataclasses import dataclass, replace

__all__ = ["SketchMLConfig"]


@dataclass(frozen=True)
class SketchMLConfig:
    """Hyper-parameters of :class:`~repro.core.compressor.SketchMLCompressor`.

    Attributes:
        num_buckets: quantile bucket count ``q`` (1 byte/value at 256).
        quantile_sketch: ``"exact"`` (default: the bucket splits are
            read off the sort the encoder already does, ε = 0), or the
            quantile sketch that sorted array is fed instead: ``"kll"``
            (the paper's DataSketches stand-in), ``"gk"`` or
            ``"tdigest"``.
        quantile_sketch_size: sketch size parameter (paper default 128;
            unused by ``"exact"``).
        minmax_rows: hash rows ``s`` per group sketch (default 2).
        minmax_cols_factor: total bins ``t`` as a fraction of the
            gradient's nnz ``d`` (default 1/5, the paper's ``d/5``).
        minmax_min_cols: lower bound on total bins so tiny gradients
            still get a usable sketch.
        num_groups: bucket groups ``r`` (default 8; max index error q/r).
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
        refit_interval: refit the quantile sketch every N compress
            calls instead of every call (1 = paper behaviour).  Between
            refits the cached splits are reused — gradient value
            distributions drift slowly across adjacent mini-batches, so
            this trades a small quantization-error increase for most of
            the encode CPU (the dominant cost in Fig. 8(c)).
        hash_family: hash family for the MinMaxSketch rows.
        seed: master seed shared by encoder and decoder.
        sanitize: run the :mod:`repro.sanitize` invariant checks on
            every encode/decode through this compressor, regardless of
            the ``REPRO_SANITIZE`` environment variable (sign
            preservation, one-sided index error, index/group bounds,
            strictly-ascending keys, decay-scale clamp).
    """

    num_buckets: int = 128
    quantile_sketch: str = "exact"
    quantile_sketch_size: int = 128
    minmax_rows: int = 2
    minmax_cols_factor: float = 0.2
    minmax_min_cols: int = 64
    num_groups: int = 8
    enable_delta_keys: bool = True
    enable_quantization: bool = True
    enable_minmax: bool = True
    pack_index_bits: bool = False
    compensate_decay: bool = False
    refit_interval: int = 1
    hash_family: str = "multiply_shift"
    seed: int = 0
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.num_buckets < 2:
            raise ValueError("num_buckets must be >= 2")
        if self.quantile_sketch not in ("kll", "gk", "tdigest", "exact"):
            raise ValueError(f"unknown quantile_sketch {self.quantile_sketch!r}")
        if self.minmax_rows <= 0:
            raise ValueError("minmax_rows must be positive")
        if self.minmax_cols_factor <= 0:
            raise ValueError("minmax_cols_factor must be positive")
        if self.num_groups <= 0:
            raise ValueError("num_groups must be positive")
        if self.refit_interval <= 0:
            raise ValueError("refit_interval must be positive")
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
