"""The SketchML gradient compressor (paper §3, Figure 2).

Encode phase (for a sparse gradient ``{(k_j, v_j)}``):

1. Fit a :class:`~repro.core.quantizer.QuantileBucketQuantizer` on the
   values — separate pos/neg exact quantile fits, ``q`` equi-depth
   buckets, indexes ordered by magnitude.
2. Per sign, partition keys by bucket *group* (``r`` groups) and insert
   ``(key, within-group offset)`` into that group's
   :class:`~repro.core.minmax_sketch.MinMaxSketch` (Min protocol).
3. Code each group's ascending key list, all groups in one pass: the
   paper's delta-binary code (§3.4) or a block-adaptive Rice code
   (:mod:`repro.core.rice`, near the ``log2(D/n) + 1.44`` bits/key
   bound), whichever is smaller for the sign's keys — both sizes are
   computed before either is coded.  The blobs are in payload v2's
   code; a payload-v1 write transcodes Rice blobs to delta-binary.
   The ablation's sketch-free parts code their one key list the same
   way.
4. Ship: per-group key blobs + per-group sketch tables + bucket means.

Decode phase reverses it: recover keys from the key blobs (a part
keeps the keys ``compress`` coded or a reader decoded beside their
blobs, :class:`GroupKeys`, so each message is key-decoded at most
once, and ``decompress`` decodes none), query each group's sketch
(Max protocol) for bucket indexes,
map indexes to bucket means, merge the parts, and sort by key.  A
merged key outside the message's dimension, or in both sign parts, is
a :class:`~repro.core.serialization.SerializationError`.

The same class implements the Figure 8 ablation stack through the
``enable_*`` flags on :class:`~repro.core.config.SketchMLConfig`; with
all flags off it degrades to the uncompressed 12-bytes-per-pair Adam
baseline, so one code path serves every bar of Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .. import sanitize, telemetry
from ..compression.base import (
    CompressedGradient,
    GradientCompressor,
    register_compressor,
    validate_sparse_gradient,
)
from .bitpack import pack_uint_array, unpack_uint_array
from .config import SketchMLConfig
from .minmax_sketch import NEGATIVE_SIGN_SEED_OFFSET, GroupedMinMaxSketch
from .quantizer import QuantileBucketQuantizer, SignedBuckets
from .rice import encode_key_groups_v2

__all__ = ["SketchMLCompressor", "SketchMLPayload", "SignPart", "GroupKeys"]


@dataclass(frozen=True, eq=False)
class GroupKeys:
    """A part's delta-coded keys, decoded and coded, always set together.

    ``concat`` holds every group's ascending keys back to back
    (``counts[g]`` of them for group ``g``; a part without a sketch is
    one group); ``blobs`` code them, one per
    group, in ``code``: a payload-v2 key code
    (:data:`~repro.core.rice.KEY_CODE_RICE` / ``KEY_CODE_DELTA``), or
    ``None`` for delta-binary blobs whose v2 code was never chosen (a
    payload-v1 decode).
    """

    concat: np.ndarray
    counts: np.ndarray
    code: Optional[int]
    blobs: List[bytes]

    @classmethod
    def coded(
        cls, concat: np.ndarray, counts: Optional[np.ndarray] = None
    ) -> "GroupKeys":
        """Keys with their payload-v2 blobs, coded once; ``counts``
        defaults to one group."""
        if counts is None:
            counts = np.array([concat.size], dtype=np.int64)
        return cls(concat, counts, *encode_key_groups_v2(concat, counts))


@dataclass
class SignPart:
    """One sign's share of a compressed gradient.

    Exactly one of the key representations and one of the value
    representations is populated, depending on the config flags.
    """

    sign: int
    nnz: int
    buckets: Optional[SignedBuckets] = None
    # --- keys ---
    group_keys: Optional[GroupKeys] = None  # delta keys (per group)
    raw_keys: Optional[np.ndarray] = None  # 4-byte keys
    # --- values ---
    sketch: Optional[GroupedMinMaxSketch] = None  # minmax path
    indexes: Optional[np.ndarray] = None  # quantized, no sketch
    packed_indexes: Optional[bytes] = None  # bit-packed variant
    index_bits: int = 0  # bits per packed index
    raw_values: Optional[np.ndarray] = None  # unquantized floats


@dataclass
class SketchMLPayload:
    """Payload of a SketchML message: one part per sign present.

    ``decay_scale`` (1.0 when compensation is off) multiplies every
    decoded value: the encoder measures its own round-trip decay and
    ships the correction (§3.3's vanishing-gradient compensation).
    """

    parts: List[SignPart] = field(default_factory=list)
    decay_scale: float = 1.0


@register_compressor("sketchml")
class SketchMLCompressor(GradientCompressor):
    """End-to-end SketchML encode/decode.

    A message's ``num_bytes`` is its payload-v2 wire length and
    ``breakdown`` that length's per-section split, both tallied by the
    serializer (:func:`~repro.core.serialization.wire_sections`).

    Args:
        config: a :class:`SketchMLConfig`; defaults to the paper's
            full pipeline with default hyper-parameters.

    Example:
        >>> import numpy as np
        >>> rng = np.random.default_rng(0)
        >>> keys = np.sort(rng.choice(100_000, size=4000, replace=False))
        >>> values = rng.laplace(scale=0.01, size=4000)
        >>> comp = SketchMLCompressor()
        >>> out_keys, out_values, msg = comp.roundtrip(keys, values, 100_000)
        >>> bool(np.array_equal(out_keys, keys))  # keys are lossless
        True
        >>> msg.compression_rate > 4
        True
    """

    name = "sketchml"

    def __init__(self, config: Optional[SketchMLConfig] = None) -> None:
        self.config = config or SketchMLConfig()

    # ------------------------------------------------------------------
    # compression
    # ------------------------------------------------------------------
    def compress(
        self, keys: np.ndarray, values: np.ndarray, dimension: int
    ) -> CompressedGradient:
        with telemetry.span("codec.compress"):
            message = self._compress(keys, values, dimension)
        if telemetry.enabled():
            telemetry.counter("codec.messages", 1)
            telemetry.counter("codec.encoded_bytes", message.num_bytes)
            telemetry.counter("codec.raw_bytes", message.raw_bytes)
        return message

    def _compress(
        self, keys: np.ndarray, values: np.ndarray, dimension: int
    ) -> CompressedGradient:
        # Function-level: serialization imports this module's payload types.
        from .serialization import wire_sections

        keys, values = validate_sparse_gradient(keys, values, dimension)
        message = CompressedGradient(
            self._encode(keys, values), 0, dimension, keys.size
        )
        message.breakdown = wire_sections(message)
        message.num_bytes = sum(message.breakdown.values())
        return message

    def _encode(self, keys: np.ndarray, values: np.ndarray) -> SketchMLPayload:
        cfg = self.config
        sanitize_active = bool(cfg.sanitize) or sanitize.enabled()
        payload = SketchMLPayload()

        if keys.size == 0:
            return payload

        if not cfg.enable_quantization:
            payload.parts.append(self._compress_unquantized(keys, values))
            return payload

        # §3.5 assumes q << d; for tiny gradients a fixed q would make
        # the 4q-byte bucket-means payload dominate the message, so the
        # effective bucket count adapts down (decoding needs nothing
        # extra: the bucket means travel with the message).
        # Integer-index gathers (flatnonzero + take) instead of boolean
        # masks: fancy boolean indexing walks the full mask per gather,
        # an order of magnitude slower for large gradients.
        neg_sel = np.flatnonzero(values < 0)
        pos_sel = np.flatnonzero(values >= 0)
        with telemetry.span("codec.quantizer_fit"):
            quantizer = QuantileBucketQuantizer(
                num_buckets=min(cfg.num_buckets, max(8, keys.size // 8))
            )
            # Fitting sorts each sign's magnitudes anyway; take the
            # bucket indexes as a byproduct instead of re-searching
            # every value against the splits afterwards.
            pos_enc, neg_enc = quantizer.fit_encode(
                values, pos_sel=pos_sel, neg_sel=neg_sel
            )
        for sign, sel, enc in ((1, pos_sel, pos_enc), (-1, neg_sel, neg_enc)):
            if sel.size == 0:
                continue
            buckets = quantizer.buckets_for_sign(sign)
            payload.parts.append(
                self._compress_sign(
                    sign,
                    keys.take(sel),
                    enc,
                    buckets,
                    sanitize_active=sanitize_active,
                )
            )
        if cfg.compensate_decay and cfg.enable_minmax:
            payload.decay_scale = self._measure_decay_scale(
                payload, values, sanitize_active=sanitize_active
            )
            telemetry.gauge("codec.decay_scale", payload.decay_scale)
        return payload

    def _measure_decay_scale(
        self,
        payload: SketchMLPayload,
        values: np.ndarray,
        sanitize_active: bool = False,
    ) -> float:
        """Encoder-side round-trip: true mean |v| over decoded mean |v|.

        The just-built sketches are queried directly with the keys each
        part holds — no decode of the freshly encoded key blobs, whose
        code is lossless, so the measured scale is bit-identical to a
        full message round-trip.
        """
        decoded_values: List[np.ndarray] = []
        for part in payload.parts:
            if part.sketch is None:
                _, part_values = self._decompress_part(
                    part, sanitize_active=sanitize_active
                )
                decoded_values.append(part_values)
                continue
            if part.group_keys.concat.size == 0:
                continue
            decoded_values.append(
                part.buckets.decode(
                    part.sketch.query_flat(
                        part.group_keys.concat, part.group_keys.counts
                    )
                )
            )
        decoded = np.concatenate(decoded_values) if decoded_values else values
        decoded_mean = float(np.abs(decoded).mean()) if decoded.size else 0.0
        if decoded_mean <= 0.0:
            return 1.0
        scale = float(np.abs(values).mean()) / decoded_mean
        # Decay is one-sided, so the correction can only scale *up*;
        # cap it so a pathological sketch cannot explode an update.
        return float(np.clip(scale, 1.0, 8.0))

    def _compress_unquantized(
        self, keys: np.ndarray, values: np.ndarray
    ) -> SignPart:
        """Adam / Adam+Key paths: raw float values, keys maybe delta'd."""
        part = SignPart(sign=0, nnz=keys.size, raw_values=values.copy())
        if self.config.enable_delta_keys:
            with telemetry.span("codec.delta_encode"):
                part.group_keys = GroupKeys.coded(keys.copy())
        else:
            part.raw_keys = keys.copy()
        return part

    def _compress_sign(
        self,
        sign: int,
        keys: np.ndarray,
        indexes: np.ndarray,
        buckets: SignedBuckets,
        sanitize_active: bool = False,
    ) -> SignPart:
        """Quantized path for one sign, with or without MinMaxSketch.

        On the MinMaxSketch path the part keeps the group-sorted keys
        beside their blobs (:class:`GroupKeys`), so neither the decay
        measurement nor a local decompress decodes the blobs.  When
        ``sanitize_active`` the freshly built sketch is immediately
        queried back and the §3.3 one-sided/range invariants are checked
        against the known true indexes.
        """
        cfg = self.config
        part = SignPart(sign=sign, nnz=keys.size, buckets=buckets)

        if cfg.enable_minmax:
            sketch = GroupedMinMaxSketch(
                num_groups=cfg.num_groups,
                index_range=max(buckets.num_buckets, 1),
                num_rows=cfg.minmax_rows,
                total_bins=cfg.minmax_total_bins(keys.size),
                seed=cfg.seed + (0 if sign > 0 else NEGATIVE_SIGN_SEED_OFFSET),
                hash_family=cfg.hash_family,
            )
            # Flat partition: the insert scatter and the key encoder both
            # consume the group-sorted concatenation directly, so no
            # per-group arrays are materialised on the encode path.
            with telemetry.span("codec.minmax_insert"):
                sorted_keys, sorted_offsets, counts = sketch.partition_flat(
                    keys, indexes
                )
                sketch.insert_flat(sorted_keys, sorted_offsets, counts)
            if sanitize_active:
                sanitize.verify_sketch_roundtrip(
                    sketch, sorted_keys, sorted_offsets, counts,
                    part=f"sign={sign}",
                )
            if telemetry.enabled():
                self._trace_sketch_fidelity(
                    sketch, sorted_keys, sorted_offsets, counts, sign
                )
            part.sketch = sketch
            with telemetry.span("codec.delta_encode"):
                part.group_keys = GroupKeys.coded(sorted_keys, counts)
        else:
            if cfg.pack_index_bits:
                bits = max(1, int(np.ceil(np.log2(max(buckets.num_buckets, 2)))))
                part.packed_indexes = pack_uint_array(indexes, bits)
                part.index_bits = bits
            else:
                # One byte per index for q <= 256 (§3.2 step 4).
                part.indexes = indexes.astype(
                    np.uint8 if cfg.num_buckets <= 256 else np.uint16
                )
            if cfg.enable_delta_keys:
                with telemetry.span("codec.delta_encode"):
                    part.group_keys = GroupKeys.coded(keys)
            else:
                part.raw_keys = keys.copy()
        return part

    @staticmethod
    def _trace_sketch_fidelity(
        sketch: GroupedMinMaxSketch,
        sorted_keys: np.ndarray,
        sorted_offsets: np.ndarray,
        counts: np.ndarray,
        sign: int,
    ) -> None:
        """Query the fresh sketch back against the known true indexes.

        Recording-only (guarded by ``telemetry.enabled()``): emits the
        sketch collision rate (fraction of keys whose decoded global
        bucket index differs from the inserted one) and the mean
        bucket-index decode error.  Min-insert/Max-query is one-sided,
        so errors are how far *below* the true index collisions pull a
        decode (§3.3).
        """
        counts = np.asarray(counts, dtype=np.int64)
        if sorted_keys.size == 0:
            return
        decoded = sketch.query_flat(sorted_keys, counts)
        group_ids = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        true_global = (
            np.asarray(sorted_offsets, dtype=np.int64)
            + group_ids * int(sketch.group_width)
        )
        errors = np.abs(true_global - decoded)
        telemetry.gauge(
            "codec.sketch_collision_rate",
            float(np.count_nonzero(errors) / errors.size),
            sign=sign,
        )
        telemetry.hist(
            "codec.bucket_index_error", float(errors.mean()), sign=sign
        )

    # ------------------------------------------------------------------
    # decompression
    # ------------------------------------------------------------------
    def decompress(
        self, message: CompressedGradient
    ) -> Tuple[np.ndarray, np.ndarray]:
        with telemetry.span("codec.decompress"):
            return self._decompress(message)

    def _decompress(
        self, message: CompressedGradient
    ) -> Tuple[np.ndarray, np.ndarray]:
        payload = message.payload
        if not isinstance(payload, SketchMLPayload):
            raise TypeError("message was not produced by SketchMLCompressor")
        sanitize_active = bool(self.config.sanitize) or sanitize.enabled()
        if sanitize_active:
            sanitize.check_decay_scale(payload.decay_scale)
        all_keys: List[np.ndarray] = []
        all_values: List[np.ndarray] = []
        runs = 0
        for part_idx, part in enumerate(payload.parts):
            part_keys, part_values = self._decompress_part(
                part, sanitize_active=sanitize_active
            )
            if sanitize_active:
                sanitize.check_sign_preservation(
                    part.sign, part_values, part=part_idx
                )
            all_keys.append(part_keys)
            all_values.append(part_values)
            runs += part.group_keys.counts.size if part.group_keys is not None else 1
        if not all_keys:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        keys = np.concatenate(all_keys)
        values = np.concatenate(all_values)
        if payload.decay_scale != 1.0:
            values = values * payload.decay_scale
        keys, order = _merge(keys, runs)
        if sanitize_active:
            # Post-merge, sorted keys are strictly ascending iff no key
            # appears in more than one part (pos/neg parts are disjoint
            # in any honest message).
            sanitize.check_ascending_keys(keys, part="merged")
        _check_merged_keys(keys, message.dimension)
        return keys, values if order is None else values[order]

    def _decompress_part(
        self, part: SignPart, sanitize_active: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        if part.raw_values is not None:
            # Unquantized path.
            keys = _part_keys(part)
            if sanitize_active:
                sanitize.check_ascending_keys(keys, part=part.sign)
            return keys, part.raw_values

        if part.buckets is None:
            raise ValueError("quantized part is missing its bucket metadata")

        if part.sketch is not None:
            # Stage 1: the group-concatenated key list (compress or the
            # reader decoded it with the blobs); stage 2: query the
            # group sketches.  One flat kernel per stage, each under its
            # own span.
            with telemetry.span("codec.delta_decode"):
                keys, counts = part.group_keys.concat, part.group_keys.counts
            if keys.size == 0:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
            if sanitize_active:
                bounds = np.zeros(counts.size + 1, dtype=np.int64)
                np.cumsum(counts, out=bounds[1:])
                for group in range(counts.size):
                    sanitize.check_ascending_keys(
                        keys[bounds[group]:bounds[group + 1]],
                        part=part.sign, group=group,
                    )
            with telemetry.span("codec.minmax_query"):
                indexes = part.sketch.query_flat(
                    keys, counts, strict=sanitize_active
                )
            if sanitize_active:
                for group in range(counts.size):
                    sanitize.check_bucket_indexes(
                        indexes[bounds[group]:bounds[group + 1]],
                        part.sketch.index_range,
                        group=group,
                        group_width=part.sketch.group_width,
                        part=part.sign,
                    )
        else:
            keys = _part_keys(part)
            if part.packed_indexes is not None:
                indexes = unpack_uint_array(
                    part.packed_indexes, keys.size, part.index_bits
                )
            else:
                indexes = part.indexes.astype(np.int64)
            if sanitize_active:
                sanitize.check_ascending_keys(keys, part=part.sign)
                # Pre-clip check: SignedBuckets.decode would silently
                # clamp an out-of-range index.
                sanitize.check_bucket_indexes(
                    indexes, part.buckets.num_buckets, part=part.sign
                )
        values = part.buckets.decode(indexes)
        return keys, values

    def __repr__(self) -> str:
        return f"SketchMLCompressor(config={self.config.ablation_label!r})"


def _part_keys(part: SignPart) -> np.ndarray:
    """A sketch-free part's keys: decoded beside their blobs, or raw."""
    if part.group_keys is None:
        return part.raw_keys
    with telemetry.span("codec.delta_decode"):
        return part.group_keys.concat


def _merge(
    keys: np.ndarray, runs: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Sort the concatenated keys of ``runs`` ascending runs:
    ``(sorted keys, order)``, ``order`` being the stable argsort, or
    ``None`` when the keys are already in order.

    A sketch message holds one run per group and sign.  When every key
    fits in 32 bits its order is that of the unique words
    ``key << 32 | position``, which any sort puts in stable order, far
    faster than a stable argsort over many runs.  One run is checked,
    not sorted; two runs (or wider keys) take the stable argsort, which
    merges two runs in about one pass.
    """
    if runs == 1 and np.all(keys[1:] >= keys[:-1]):
        return keys, None
    if (runs > 2 and keys.dtype == np.int64 and keys.size >> 32 == 0
            and not np.count_nonzero(keys >> 32)):
        packed = keys.astype(np.uint64)
        packed <<= 32
        packed |= np.arange(keys.size, dtype=np.uint64)
        packed.sort()
        order = packed & 0xFFFF_FFFF
        packed >>= 32
        return packed.view(np.int64), order
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def _check_merged_keys(keys: np.ndarray, dimension: int) -> None:
    """Merged, sorted decoded keys must each name one model dimension.

    A key at or past ``dimension`` would index past the model, and a key
    in both sign parts would scatter two updates into one slot, one of
    which is silently lost.
    """
    # Function-level: serialization imports this module's payload types.
    from .serialization import SerializationError

    if keys.size == 0:
        return
    if keys[-1] >= dimension:
        raise SerializationError(
            f"decoded key {int(keys[-1])} is outside the message's "
            f"dimension {dimension}"
        )
    repeats = np.flatnonzero(keys[1:] == keys[:-1])
    if repeats.size:
        raise SerializationError(
            f"decoded key {int(keys[repeats[0]])} appears in two parts of a "
            f"message of dimension {dimension}"
        )
