"""Runtime sanitizer for the codec's paper-proved invariants.

SketchML's correctness rests on invariants the paper *proves* but the
code normally only trusts:

* **sign-preservation** (§3.3 Solution 1) — positive and negative
  values get separate sketches, so a decoded value can never flip sign.
* **one-sided-error** (§3.3) — MinMaxSketch min-insert / max-query
  means a decoded bucket index is never *larger* than the true one:
  gradients decay, never grow.
* **bucket-index-range** (§3.3 Solution 2) — every decoded index lies
  in ``[0, q)`` and inside its group's ``[g*width, (g+1)*width)`` band.
* **ascending-keys** (§3.4) — delta-binary key blobs decode to strictly
  ascending keys, and the merged decode has no duplicate keys.
* **decay-scale-bounds** — the shipped decay correction stays in the
  encoder's documented ``[1, 8]`` clamp.

The sanitizer re-checks these on every encode/decode when enabled via
the ``REPRO_SANITIZE=1`` environment variable, :func:`set_enabled` /
:func:`sanitized`, or the ``sanitize`` flag on
:class:`~repro.core.config.SketchMLConfig`.  A violation raises a
structured :class:`SanitizerError` naming the invariant and the message
offset.  ``SanitizerError`` subclasses :class:`ValueError` so callers
that already treat corrupted messages as typed decode failures (the
failure-injection suite, the trainer) need no changes.

This module depends only on numpy so every codec layer can import it
without cycles.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

__all__ = [
    "SanitizerError",
    "INVARIANT_SIGN",
    "INVARIANT_ONE_SIDED",
    "INVARIANT_INDEX_RANGE",
    "INVARIANT_ASCENDING_KEYS",
    "INVARIANT_DECAY_SCALE",
    "INVARIANTS",
    "enabled",
    "set_enabled",
    "sanitized",
    "check_sign_preservation",
    "check_bucket_indexes",
    "check_one_sided",
    "check_ascending_keys",
    "check_decay_scale",
    "verify_sketch_roundtrip",
]

#: §3.3 Solution 1 — separate pos/neg sketches; decoding never flips sign.
INVARIANT_SIGN = "sign-preservation"
#: §3.3 — min-insert / max-query: decoded index <= true index.
INVARIANT_ONE_SIDED = "one-sided-error"
#: §3.3 Solution 2 — indexes stay below q and inside their group band.
INVARIANT_INDEX_RANGE = "bucket-index-range"
#: §3.4 — delta-encoded keys decode strictly ascending, no duplicates.
INVARIANT_ASCENDING_KEYS = "ascending-keys"
#: Encoder-side clamp on the §3.3 vanishing-gradient compensation.
INVARIANT_DECAY_SCALE = "decay-scale-bounds"

#: Every invariant id the sanitizer can report, for docs and tests.
INVARIANTS = (
    INVARIANT_SIGN,
    INVARIANT_ONE_SIDED,
    INVARIANT_INDEX_RANGE,
    INVARIANT_ASCENDING_KEYS,
    INVARIANT_DECAY_SCALE,
)


class SanitizerError(ValueError):
    """A paper invariant was violated during encode or decode.

    Attributes:
        invariant: one of :data:`INVARIANTS`.
        part: which message part (sign label or part index) failed.
        group: MinMaxSketch group id, when the check is per group.
        offset: first offending element offset within the checked array.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        part: Optional[object] = None,
        group: Optional[int] = None,
        offset: Optional[int] = None,
    ) -> None:
        self.invariant = invariant
        self.part = part
        self.group = group
        self.offset = offset
        where = []
        if part is not None:
            where.append(f"part={part}")
        if group is not None:
            where.append(f"group={group}")
        if offset is not None:
            where.append(f"offset={offset}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"[{invariant}] {message}{suffix}")


_FORCED: Optional[bool] = None
_TRUTHY_OFF = ("", "0", "false", "off", "no")


def enabled() -> bool:
    """True when sanitizer checks are active for this process.

    :func:`set_enabled` / :func:`sanitized` take precedence; otherwise
    the ``REPRO_SANITIZE`` environment variable decides (any value other
    than empty/``0``/``false``/``off``/``no`` enables).
    """
    if _FORCED is not None:
        return _FORCED
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() not in _TRUTHY_OFF


def set_enabled(value: Optional[bool]) -> Optional[bool]:
    """Force the sanitizer on/off (``None`` = defer to the environment).

    Returns the previous forced value so callers can restore it.
    """
    global _FORCED
    previous = _FORCED
    _FORCED = value if value is None else bool(value)
    return previous


@contextmanager
def sanitized(value: bool = True) -> Iterator[None]:
    """Run the enclosed block with the sanitizer forced on (or off)."""
    previous = set_enabled(value)
    try:
        yield
    finally:
        set_enabled(previous)


def _first_offending(bad: np.ndarray) -> int:
    return int(np.flatnonzero(bad)[0])


# ----------------------------------------------------------------------
# invariant checks
# ----------------------------------------------------------------------
def check_sign_preservation(
    sign: int, values: np.ndarray, *, part: Optional[object] = None
) -> None:
    """§3.3 Solution 1: a decoded value never crosses zero.

    A positive part must decode to values ``>= 0``, a negative part to
    values ``<= 0`` (zero is legal for both: an empty bucket's mean).
    ``sign == 0`` (the unquantized mixed part) is exempt.
    """
    if sign == 0:
        return
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return
    bad = values < 0 if sign > 0 else values > 0
    if bad.any():
        off = _first_offending(bad)
        raise SanitizerError(
            INVARIANT_SIGN,
            f"decoded value {values[off]!r} has the wrong sign for a "
            f"{'positive' if sign > 0 else 'negative'} part",
            part=part,
            offset=off,
        )


def check_bucket_indexes(
    indexes: np.ndarray,
    num_buckets: int,
    *,
    group: Optional[int] = None,
    group_width: Optional[int] = None,
    part: Optional[object] = None,
) -> None:
    """§3.3 Solution 2: ``0 <= index < q`` and inside the group band."""
    indexes = np.asarray(indexes, dtype=np.int64)
    if indexes.size == 0:
        return
    lo, hi = 0, int(num_buckets)
    if group is not None and group_width is not None:
        lo = int(group) * int(group_width)
        hi = min(lo + int(group_width), hi)
    bad = (indexes < lo) | (indexes >= hi)
    if bad.any():
        off = _first_offending(bad)
        raise SanitizerError(
            INVARIANT_INDEX_RANGE,
            f"bucket index {int(indexes[off])} outside [{lo}, {hi}) "
            f"(q={num_buckets})",
            part=part,
            group=group,
            offset=off,
        )


def check_one_sided(
    true_indexes: np.ndarray,
    decoded_indexes: np.ndarray,
    *,
    group: Optional[int] = None,
    part: Optional[object] = None,
) -> None:
    """§3.3: the MinMaxSketch may under-estimate an index, never over."""
    true_indexes = np.asarray(true_indexes, dtype=np.int64)
    decoded_indexes = np.asarray(decoded_indexes, dtype=np.int64)
    if true_indexes.shape != decoded_indexes.shape:
        raise SanitizerError(
            INVARIANT_ONE_SIDED,
            f"decoded index count {decoded_indexes.size} does not match "
            f"true index count {true_indexes.size}",
            part=part,
            group=group,
        )
    bad = decoded_indexes > true_indexes
    if bad.any():
        off = _first_offending(bad)
        raise SanitizerError(
            INVARIANT_ONE_SIDED,
            f"decoded index {int(decoded_indexes[off])} over-estimates the "
            f"true index {int(true_indexes[off])}",
            part=part,
            group=group,
            offset=off,
        )


def check_ascending_keys(
    keys: np.ndarray,
    *,
    group: Optional[int] = None,
    part: Optional[object] = None,
) -> None:
    """§3.4: decoded keys are non-negative and strictly ascending."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        return
    if int(keys[0]) < 0 or (keys.size > 1 and keys.min() < 0):
        bad = keys < 0
        off = _first_offending(bad)
        raise SanitizerError(
            INVARIANT_ASCENDING_KEYS,
            f"decoded key {int(keys[off])} is negative",
            part=part,
            group=group,
            offset=off,
        )
    if keys.size > 1:
        bad = np.zeros(keys.size, dtype=bool)
        bad[1:] = np.diff(keys) <= 0
        if bad.any():
            off = _first_offending(bad)
            raise SanitizerError(
                INVARIANT_ASCENDING_KEYS,
                f"decoded keys not strictly ascending: key {int(keys[off])} "
                f"follows {int(keys[off - 1])}",
                part=part,
                group=group,
                offset=off,
            )


def check_decay_scale(scale: float, *, part: Optional[object] = None) -> None:
    """The shipped decay correction must lie in the encoder's [1, 8] clamp."""
    scale = float(scale)
    if not np.isfinite(scale) or not 1.0 <= scale <= 8.0:
        raise SanitizerError(
            INVARIANT_DECAY_SCALE,
            f"decay scale {scale!r} outside the documented [1.0, 8.0] clamp",
            part=part,
        )


def verify_sketch_roundtrip(
    sketch,
    sorted_keys: np.ndarray,
    sorted_offsets: np.ndarray,
    counts: np.ndarray,
    *,
    part: Optional[object] = None,
) -> None:
    """Encoder-side proof obligation: query back everything just inserted.

    ``sketch`` is a :class:`~repro.core.minmax_sketch.GroupedMinMaxSketch`
    (duck-typed to avoid an import cycle) that was just filled from the
    flat partition ``(sorted_keys, sorted_offsets, counts)``.  For every
    group this re-queries the inserted keys and asserts the §3.3
    guarantees against the *known* true indexes: decoded index in range,
    inside the group band, and never above the true index.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if int(counts.sum()) == 0:
        return
    width = int(sketch.group_width)
    q = int(sketch.index_range)
    decoded_all = sketch.query_flat(sorted_keys, counts, strict=True)
    bounds = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    for g in range(counts.size):
        if not counts[g]:
            continue
        true_global = (
            np.asarray(sorted_offsets[bounds[g]:bounds[g + 1]], dtype=np.int64)
            + g * width
        )
        decoded = decoded_all[bounds[g]:bounds[g + 1]]
        check_bucket_indexes(
            decoded, q, group=g, group_width=width, part=part
        )
        check_one_sided(true_global, decoded, group=g, part=part)
