"""Length-prefixed frame codec for the runtime transports.

Every driver/worker exchange — on every backend, including the
in-process simulator — is a *frame*: a fixed little-endian header
followed by an opaque payload.  Gradient payloads are the real
SketchML wire bytes from :func:`repro.core.serialization.
serialize_message`; control payloads (step, update, ack headers) are
packed here so byte-layout opinions stay confined to wire modules
(the ``wire-format`` lint rule).

Layout (all integers little-endian)::

    frame:   magic "SKRT" | version u8 | kind u8 | sender u16 | length u64
             | payload bytes
    STEP:    round u32 | lr f64
    GRAD:    round u32 | has_batch u8 | loss f64 | compute_s f64
             | encode_s f64 | nnz u64 | serialized message bytes
    UPDATE:  round u32 | lr f64 | serialized aggregate bytes
    ACK:     value u32
    EPOCH:   epoch u32

``INIT`` / ``READY`` / ``ERROR`` / ``SYNC`` / ``RESHARD`` payloads are
pickled control dictionaries (they never carry gradient data and never
cross trust boundaries: workers are child processes of the driver on
this host).  ``SYNC`` ships a joining worker the driver's full replica
state; ``RESHARD`` re-assigns a worker's data shard when the elastic
membership changes (see ``docs/fleet.md``).
A frame that does not parse raises :class:`FrameError`; corrupted
*gradient* payloads parse as frames and are rejected downstream by
``deserialize_message`` / the ``REPRO_SANITIZE`` invariant checks —
the frame layer deliberately carries no checksum that would mask that
path.

Every runtime connection speaks one protocol (``docs/wire.md``): frame
v2 with the ops plane on, payload v2.  It opens with a ``HELLO`` each
way carrying the constant :data:`HELLO_PAYLOAD`; :func:`check_hello`
refuses anything else (a peer without payload v2 fails with
:class:`NegotiationError`).  ``CHUNK``/``END`` stream one oversized
logical frame as a bounded sequence (:func:`iter_chunk_frames` /
:class:`ChunkReassembler`) so a multi-GB gradient never crosses the
wire — or the reassembly buffer — as one contiguous allocation.  The
header version byte is a per-kind stamp, not a connection property:
``CHUNK``/``END`` carry 2 and every other kind carries 1.  An ops block
(:func:`pack_ops`) may follow a STEP / GRAD / UPDATE payload's fixed
header and may open an ACK / HEARTBEAT payload; receivers peel it
tolerantly (:func:`unpack_ops_prefix`).
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "FrameError",
    "NegotiationError",
    "FrameAssembler",
    "ChunkReassembler",
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "FRAME_VERSION_V2",
    "SUPPORTED_FRAME_VERSIONS",
    "HEADER_SIZE",
    "GRAD_HEADER_SIZE",
    "UPDATE_HEADER_SIZE",
    "MAX_FRAME_BYTES",
    "DEFAULT_CHUNK_BYTES",
    "KIND_INIT",
    "KIND_READY",
    "KIND_EPOCH",
    "KIND_STEP",
    "KIND_GRAD",
    "KIND_UPDATE",
    "KIND_ACK",
    "KIND_HEARTBEAT",
    "KIND_STOP",
    "KIND_ERROR",
    "KIND_ECHO",
    "KIND_SYNC",
    "KIND_RESHARD",
    "KIND_HELLO",
    "KIND_CHUNK",
    "KIND_END",
    "KIND_NAMES",
    "pack_frame",
    "unpack_header",
    "unpack_header_from",
    "unpack_frame",
    "pack_step",
    "unpack_step",
    "pack_grad_header",
    "unpack_grad",
    "pack_update_header",
    "unpack_update",
    "pack_ack",
    "unpack_ack",
    "HELLO_PAYLOAD",
    "check_hello",
    "OPS_HEADER_SIZE",
    "pack_ops",
    "unpack_ops_prefix",
    "split_ops_prefix_chunks",
    "pack_metrics",
    "unpack_metrics",
    "pack_chunk",
    "unpack_chunk",
    "pack_chunk_end",
    "unpack_chunk_end",
    "iter_chunk_frames",
    "split_chunk_prefix",
]

FRAME_MAGIC = b"SKRT"
FRAME_VERSION = 1
FRAME_VERSION_V2 = 2
SUPPORTED_FRAME_VERSIONS = (FRAME_VERSION, FRAME_VERSION_V2)

_HEADER = struct.Struct("<4sBBHQ")
HEADER_SIZE = _HEADER.size

#: Hard ceiling on a single frame's payload — a corrupted length field
#: must not make a receiver try to allocate petabytes.  Receivers can
#: (and the fuzz tier does) pass :class:`FrameAssembler` a tighter
#: per-connection budget.
MAX_FRAME_BYTES = 1 << 31

#: Default data bytes per ``CHUNK`` frame when streaming a large
#: payload (:func:`iter_chunk_frames`).
DEFAULT_CHUNK_BYTES = 64 * 1024

KIND_INIT = 1
KIND_READY = 2
KIND_EPOCH = 3
KIND_STEP = 4
KIND_GRAD = 5
KIND_UPDATE = 6
KIND_ACK = 7
KIND_HEARTBEAT = 8
KIND_STOP = 9
KIND_ERROR = 10
KIND_ECHO = 11
KIND_SYNC = 12
KIND_RESHARD = 13
KIND_HELLO = 14
KIND_CHUNK = 15
KIND_END = 16

KIND_NAMES = {
    KIND_INIT: "init",
    KIND_READY: "ready",
    KIND_EPOCH: "epoch",
    KIND_STEP: "step",
    KIND_GRAD: "grad",
    KIND_UPDATE: "update",
    KIND_ACK: "ack",
    KIND_HEARTBEAT: "heartbeat",
    KIND_STOP: "stop",
    KIND_ERROR: "error",
    KIND_ECHO: "echo",
    KIND_SYNC: "sync",
    KIND_RESHARD: "reshard",
    KIND_HELLO: "hello",
    KIND_CHUNK: "chunk",
    KIND_END: "end",
}

_STEP = struct.Struct("<Id")
_GRAD = struct.Struct("<IBdddQ")
_UPDATE = struct.Struct("<Id")
_ACK = struct.Struct("<I")

#: Fixed header sizes of the GRAD / UPDATE payloads — what
#: :func:`split_chunk_prefix` peels off a reassembled chunk stream
#: before the rest goes to the streaming message decoder.
GRAD_HEADER_SIZE = _GRAD.size
UPDATE_HEADER_SIZE = _UPDATE.size

_HELLO_MAGIC = b"HELO"
_HELLO = struct.Struct("<4sBBBB")
_CHUNK = struct.Struct("<IB")
_CHUNK_END = struct.Struct("<IBQ")

#: Ops block (live-ops plane): an optional, length-delimited block
#: between a payload's fixed header and its message bytes, carrying a
#: propagated span context and/or compact metric deltas.  Layout:
#: ``"OPS1" | flags u8 | span_id u64 | metrics_len u32 | metrics``.
_OPS_MAGIC = b"OPS1"
_OPS_HEADER = struct.Struct("<4sBQI")
_OPS_FLAG_SPAN = 0x01
OPS_HEADER_SIZE = _OPS_HEADER.size

#: Metric-delta encoding inside an ops block: ``count u16`` then per
#: entry ``key_len u8 | key utf-8 | value i64`` (name-sorted).
_METRICS_COUNT = struct.Struct("<H")
_METRICS_VALUE = struct.Struct("<q")


class FrameError(ValueError):
    """Raised when bytes cannot be parsed as a runtime frame."""


class NegotiationError(FrameError):
    """Raised when two peers share no common protocol version."""


def pack_frame(
    kind: int, sender: int, payload: bytes = b"", *, version: int = FRAME_VERSION
) -> bytes:
    """Build one wire frame: header + payload."""
    if kind not in KIND_NAMES:
        raise FrameError(f"unknown frame kind {kind}")
    if version not in SUPPORTED_FRAME_VERSIONS:
        raise FrameError(f"unsupported frame version {version}")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"payload of {len(payload)} bytes exceeds frame limit")
    return _HEADER.pack(
        FRAME_MAGIC, version, kind, sender, len(payload)
    ) + payload


def unpack_header(
    data: bytes, *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> Tuple[int, int, int]:
    """Parse a frame header; returns ``(kind, sender, payload_length)``."""
    if len(data) < HEADER_SIZE:
        raise FrameError(f"short frame header ({len(data)} bytes)")
    return unpack_header_from(data, 0, max_frame_bytes=max_frame_bytes)


def unpack_header_from(
    buf, offset: int = 0, *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> Tuple[int, int, int]:
    """Parse a frame header in place (no slice copy).

    Works over any buffer object (``bytes``, ``bytearray``,
    ``memoryview``) with at least ``HEADER_SIZE`` bytes available at
    ``offset``; returns ``(kind, sender, payload_length)``.  The
    declared length is validated against ``max_frame_bytes`` *here*,
    before any receiver allocates for the payload.
    """
    try:
        magic, version, kind, sender, length = _HEADER.unpack_from(buf, offset)
    except struct.error as exc:
        raise FrameError(f"short frame header: {exc}") from None
    if magic != FRAME_MAGIC:
        raise FrameError("bad magic; not a runtime frame")
    if version not in SUPPORTED_FRAME_VERSIONS:
        raise FrameError(f"unsupported frame version {version}")
    if kind not in KIND_NAMES:
        raise FrameError(f"unknown frame kind {kind}")
    if length > min(max_frame_bytes, MAX_FRAME_BYTES):
        raise FrameError(f"frame length {length} exceeds limit")
    return kind, sender, length


class FrameAssembler:
    """Incremental zero-copy reassembly of frames from a byte stream.

    Stream transports feed raw socket bytes in and take complete
    frames out.  The assembler owns one reusable ``bytearray``; readers
    fill its tail directly via :meth:`writable` (a ``memoryview``
    suitable for ``recv_into``) + :meth:`commit`, so arriving bytes are
    written into the frame buffer exactly once.  :meth:`next_frame`
    parses the header in place (:func:`unpack_header_from`) and copies
    each complete frame out once — the only copy a frame pays between
    the socket and the transport inbox.  Partial reads, frames split
    across arbitrary ``recv`` boundaries, and coalesced back-to-back
    frames all fall out of the same accounting.

    The buffer is compacted (live bytes moved to the front) only when
    the tail runs out of room, and grows geometrically when a frame is
    larger than the current capacity.

    ``max_frame_bytes`` clamps the declared length of every frame
    *before* the pre-sizing allocation: a lying u64 length field raises
    :class:`FrameError` instead of growing the buffer toward it.  The
    default is the protocol-wide :data:`MAX_FRAME_BYTES`; receivers
    that know their peers better (tests, fuzzers, control-plane-only
    connections) pass a tighter budget.
    """

    def __init__(
        self,
        initial_capacity: int = 65536,
        *,
        max_frame_bytes: Optional[int] = None,
    ) -> None:
        if initial_capacity <= 0:
            raise ValueError("initial_capacity must be positive")
        if max_frame_bytes is None:
            max_frame_bytes = MAX_FRAME_BYTES
        if max_frame_bytes <= 0:
            raise ValueError("max_frame_bytes must be positive")
        self._max_frame_bytes = max_frame_bytes
        self._buf = bytearray(initial_capacity)
        self._start = 0  # first unconsumed byte
        self._end = 0  # one past the last filled byte

    def __len__(self) -> int:
        """Bytes buffered but not yet extracted as frames."""
        return self._end - self._start

    def writable(self, min_size: int = 65536) -> memoryview:
        """A writable view of the buffer tail (use with ``recv_into``).

        Guarantees at least ``min_size`` bytes of room, compacting or
        growing the underlying buffer as needed.
        """
        if len(self._buf) - self._end < min_size:
            live = self._end - self._start
            capacity = len(self._buf)
            while capacity - live < min_size:
                capacity *= 2  # geometric growth
            # Swap in a fresh buffer rather than resizing in place: a
            # caller may still hold the memoryview from the previous
            # writable() call, and resizing an exported bytearray
            # raises BufferError.
            fresh = bytearray(capacity)
            fresh[:live] = self._buf[self._start:self._end]
            self._buf = fresh
            self._start, self._end = 0, live
        return memoryview(self._buf)[self._end:]

    def commit(self, n: int) -> None:
        """Record that ``n`` bytes were written into :meth:`writable`."""
        if n < 0 or self._end + n > len(self._buf):
            raise ValueError(f"cannot commit {n} bytes")
        self._end += n

    def feed(self, data: bytes) -> None:
        """Copy-in convenience for non-socket sources (pipes, tests)."""
        view = self.writable(max(len(data), 1))
        view[: len(data)] = data
        self.commit(len(data))

    def next_frame(self) -> Optional[bytes]:
        """Extract the next complete frame, or ``None`` if more bytes
        are needed.  Raises :class:`FrameError` when the buffered bytes
        cannot be a frame header (a desynchronised stream)."""
        available = self._end - self._start
        if available < HEADER_SIZE:
            return None
        _, _, length = unpack_header_from(
            self._buf, self._start, max_frame_bytes=self._max_frame_bytes
        )
        total = HEADER_SIZE + length
        if available < total:
            # Pre-size for the rest of this frame so large payloads
            # don't pay repeated doublings.
            if total > len(self._buf) - self._start:
                self.writable(total - available)
            return None
        frame = bytes(self._buf[self._start:self._start + total])
        self._start += total
        if self._start == self._end:
            self._start = self._end = 0
        return frame


def unpack_frame(data: bytes) -> Tuple[int, int, bytes]:
    """Parse one complete frame; returns ``(kind, sender, payload)``."""
    kind, sender, length = unpack_header(data)
    if len(data) != HEADER_SIZE + length:
        raise FrameError(
            f"frame length mismatch: header says {length}, "
            f"got {len(data) - HEADER_SIZE} payload bytes"
        )
    return kind, sender, data[HEADER_SIZE:]


# ----------------------------------------------------------------------
# HELLO check
# ----------------------------------------------------------------------
#: The one HELLO payload every runtime peer sends: frame and payload
#: ranges both ``[2, 2]`` (payload v2 is
#: :data:`repro.core.serialization.PAYLOAD_VERSION_V2`).
HELLO_PAYLOAD = _HELLO.pack(
    _HELLO_MAGIC, FRAME_VERSION_V2, FRAME_VERSION_V2, 2, 2
)


def check_hello(payload: bytes) -> None:
    """Check a peer's HELLO payload against the one protocol spoken.

    Raises:
        FrameError: a short payload, bad magic, or bytes after the
            8-byte base (a malformed HELLO).
        NegotiationError: a well-formed HELLO whose frame or payload
            range does not contain version 2.
    """
    if len(payload) < _HELLO.size:
        raise FrameError(f"short HELLO payload ({len(payload)} bytes)")
    magic, f_lo, f_hi, p_lo, p_hi = _HELLO.unpack_from(payload)
    if magic != _HELLO_MAGIC:
        raise FrameError("bad HELLO magic")
    for lo, hi, axis in ((f_lo, f_hi, "frame"), (p_lo, p_hi, "payload")):
        if not lo <= 2 <= hi:
            raise NegotiationError(
                f"no common {axis} version: ours [2, 2], theirs [{lo}, {hi}]"
            )
    if len(payload) > _HELLO.size:
        raise FrameError(
            f"{len(payload) - _HELLO.size} trailing bytes after HELLO"
        )


# ----------------------------------------------------------------------
# chunked streaming (frame v2)
# ----------------------------------------------------------------------
def pack_chunk(sender: int, seq: int, inner_kind: int, data: bytes) -> bytes:
    """One ``CHUNK`` frame: sequence number, wrapped kind, data slice."""
    if inner_kind not in KIND_NAMES:
        raise FrameError(f"unknown inner frame kind {inner_kind}")
    return pack_frame(
        KIND_CHUNK, sender, _CHUNK.pack(seq, inner_kind) + data,
        version=FRAME_VERSION_V2,
    )


def unpack_chunk(payload: bytes) -> Tuple[int, int, bytes]:
    """Split a ``CHUNK`` payload into ``(seq, inner_kind, data)``."""
    if len(payload) < _CHUNK.size:
        raise FrameError(f"short CHUNK payload ({len(payload)} bytes)")
    seq, inner_kind = _CHUNK.unpack(payload[:_CHUNK.size])
    return int(seq), int(inner_kind), payload[_CHUNK.size:]


def pack_chunk_end(
    sender: int, total_chunks: int, inner_kind: int, total_bytes: int
) -> bytes:
    """The ``END`` frame closing a chunk stream, with its totals."""
    if inner_kind not in KIND_NAMES:
        raise FrameError(f"unknown inner frame kind {inner_kind}")
    return pack_frame(
        KIND_END, sender, _CHUNK_END.pack(total_chunks, inner_kind, total_bytes),
        version=FRAME_VERSION_V2,
    )


def unpack_chunk_end(payload: bytes) -> Tuple[int, int, int]:
    """Split an ``END`` payload into ``(total_chunks, inner_kind, total_bytes)``."""
    try:
        total_chunks, inner_kind, total_bytes = _CHUNK_END.unpack(payload)
    except struct.error as exc:
        raise FrameError(f"bad END payload: {exc}") from None
    return int(total_chunks), int(inner_kind), int(total_bytes)


def iter_chunk_frames(
    inner_kind: int,
    sender: int,
    pieces: Iterable[bytes],
    *,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Iterator[bytes]:
    """Stream a logical payload as ``CHUNK`` frames plus a closing ``END``.

    ``pieces`` is any iterable of byte strings (for gradients, the
    GRAD header followed by
    :func:`~repro.core.serialization.iter_serialize_message` output);
    they are re-sliced so every ``CHUNK`` carries exactly
    ``chunk_bytes`` of data except the last.  Only one chunk is
    buffered at a time.
    """
    if chunk_bytes <= 0:
        raise FrameError("chunk_bytes must be positive")
    seq = 0
    total_bytes = 0
    buf = bytearray()
    for piece in pieces:
        start = 0
        while start < len(piece):
            take = min(chunk_bytes - len(buf), len(piece) - start)
            buf += piece[start:start + take]
            start += take
            if len(buf) == chunk_bytes:
                yield pack_chunk(sender, seq, inner_kind, bytes(buf))
                seq += 1
                total_bytes += len(buf)
                del buf[:]
    if buf:
        yield pack_chunk(sender, seq, inner_kind, bytes(buf))
        seq += 1
        total_bytes += len(buf)
    yield pack_chunk_end(sender, seq, inner_kind, total_bytes)


class ChunkReassembler:
    """Bounded, strictly sequential reassembly of one chunk stream.

    Transports feed ``CHUNK`` payloads in arrival order and close the
    stream with the ``END`` payload; the result is the inner frame kind
    plus the data as a *list* of chunks, never joined here — the
    streaming deserialiser consumes the list directly, so the payload
    stays non-contiguous end to end.

    Every deviation is a structured :class:`FrameError`: out-of-order
    or duplicated sequence numbers, a mid-stream kind switch, a budget
    overrun, or ``END`` totals that disagree with what actually
    arrived (a length-field lie).
    """

    def __init__(self, *, max_bytes: int = MAX_FRAME_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self._max_bytes = max_bytes
        self.reset()

    def reset(self) -> None:
        """Drop any partial stream (e.g. before a supervised retry)."""
        self._chunks: List[bytes] = []
        self._bytes = 0
        self._kind: Optional[int] = None
        self._next_seq = 0

    @property
    def active(self) -> bool:
        """True once at least one chunk of a stream has arrived."""
        return self._kind is not None

    def feed(self, payload: bytes) -> None:
        """Add one ``CHUNK`` frame's payload to the stream."""
        seq, inner_kind, data = unpack_chunk(payload)
        if self._kind is None:
            self._kind = inner_kind
        elif inner_kind != self._kind:
            raise FrameError(
                f"chunk stream switched kind {self._kind} -> {inner_kind}"
            )
        if seq != self._next_seq:
            raise FrameError(
                f"chunk sequence broken: got {seq}, expected {self._next_seq}"
            )
        if self._bytes + len(data) > self._max_bytes:
            raise FrameError(
                f"chunked payload exceeds the {self._max_bytes}-byte "
                f"reassembly budget"
            )
        self._chunks.append(data)
        self._bytes += len(data)
        self._next_seq += 1

    def feed_tolerant(self, payload: bytes) -> bool:
        """Feed one ``CHUNK`` payload, absorbing retries and stale tails.

        The supervised send path retries a failed chunked send from the
        beginning with identical bytes, and a receiver that timed out
        mid-stream may still see the old stream's tail before the new
        one starts.  Two deviations are therefore expected rather than
        fatal: a seq-0 chunk arriving while a stream is active restarts
        the stream (the partial one it replaces is discarded), and a
        non-zero-seq chunk arriving while *no* stream is active is a
        recognisably stale leftover and is dropped.  Returns ``True``
        when the chunk was accepted, ``False`` when it was dropped as
        stale.  Everything else — a mid-stream gap, a kind switch, a
        budget overrun — still raises :class:`FrameError`.
        """
        seq, _, _ = unpack_chunk(payload)
        if seq == 0 and self.active:
            self.reset()
        elif seq != 0 and not self.active:
            return False
        self.feed(payload)
        return True

    def finish_tolerant(
        self, payload: bytes
    ) -> Optional[Tuple[int, List[bytes]]]:
        """Close the stream, dropping a recognisably stale ``END``.

        An ``END`` declaring non-zero totals while no stream is active
        is the tail of an aborted earlier stream (whose chunks
        :meth:`feed_tolerant` already dropped); it returns ``None``
        instead of raising.  An ``END`` whose totals disagree with an
        *active* stream is still a length-field lie and raises
        :class:`FrameError`.
        """
        total_chunks, _, total_bytes = unpack_chunk_end(payload)
        if not self.active and (total_chunks != 0 or total_bytes != 0):
            return None
        return self.finish(payload)

    def finish(self, payload: bytes) -> Tuple[int, List[bytes]]:
        """Close the stream with the ``END`` payload.

        Returns ``(inner_kind, chunks)`` and resets for the next
        stream.  The declared totals must match what arrived exactly.
        """
        total_chunks, inner_kind, total_bytes = unpack_chunk_end(payload)
        if self._kind is None:
            if total_chunks != 0 or total_bytes != 0:
                raise FrameError("END without a preceding chunk stream")
            self._kind = inner_kind
        if inner_kind != self._kind:
            raise FrameError(
                f"END kind {inner_kind} does not match stream kind {self._kind}"
            )
        if total_chunks != self._next_seq:
            raise FrameError(
                f"END declares {total_chunks} chunks, received {self._next_seq}"
            )
        if total_bytes != self._bytes:
            raise FrameError(
                f"END declares {total_bytes} bytes, received {self._bytes}"
            )
        out = (self._kind, self._chunks)
        self.reset()
        return out


def split_chunk_prefix(
    chunks: Sequence[bytes], n: int
) -> Tuple[bytes, List[bytes]]:
    """Peel ``n`` header bytes off a chunk list without joining the rest.

    Used to strip the fixed GRAD/UPDATE header from a reassembled
    stream before handing the remaining chunks to the streaming
    message decoder.
    """
    head = bytearray()
    rest: List[bytes] = []
    for chunk in chunks:
        if len(head) < n:
            need = n - len(head)
            head += chunk[:need]
            if len(chunk) > need:
                rest.append(chunk[need:])
        elif chunk:
            rest.append(chunk)
    if len(head) < n:
        raise FrameError(
            f"chunked payload shorter than its {n}-byte header"
        )
    return bytes(head), rest


# ----------------------------------------------------------------------
# typed payload codecs
# ----------------------------------------------------------------------
def pack_step(round_id: int, lr: float) -> bytes:
    return _STEP.pack(round_id, lr)


def unpack_step(
    payload: bytes,
) -> Tuple[int, float, Optional[int], Dict[str, int]]:
    """Split a STEP payload into ``(round, lr, span_id, metrics)``.

    Accepts the bare 12-byte payload (span ``None``, empty metrics)
    and one followed by an ops block.  Trailing bytes that are neither
    raise :class:`FrameError`.
    """
    if len(payload) < _STEP.size:
        raise FrameError(f"short STEP payload ({len(payload)} bytes)")
    round_id, lr = _STEP.unpack_from(payload)
    span_id, metrics, rest = unpack_ops_prefix(payload[_STEP.size:])
    if rest:
        raise FrameError(
            f"{len(rest)} unrecognised trailing bytes after STEP payload"
        )
    return int(round_id), float(lr), span_id, metrics


# ----------------------------------------------------------------------
# ops blocks (live-ops plane): span context + metric deltas
# ----------------------------------------------------------------------
def pack_metrics(deltas: Dict[str, int]) -> bytes:
    """Encode integer metric deltas (name-sorted for determinism)."""
    items = sorted(deltas.items())
    if len(items) > 0xFFFF:
        raise FrameError(f"too many metric entries ({len(items)})")
    parts = [_METRICS_COUNT.pack(len(items))]
    for name, value in items:
        key = name.encode("utf-8")
        if not 0 < len(key) <= 255:
            raise FrameError(f"bad metric name length: {name!r}")
        parts.append(bytes((len(key),)))
        parts.append(key)
        parts.append(_METRICS_VALUE.pack(int(value)))
    return b"".join(parts)


def unpack_metrics(data: bytes) -> Dict[str, int]:
    """Decode :func:`pack_metrics` output; raises on truncation."""
    if len(data) < _METRICS_COUNT.size:
        raise FrameError(f"short metrics block ({len(data)} bytes)")
    (count,) = _METRICS_COUNT.unpack_from(data)
    offset = _METRICS_COUNT.size
    deltas: Dict[str, int] = {}
    for _ in range(count):
        if offset >= len(data):
            raise FrameError("truncated metrics block")
        key_len = data[offset]
        offset += 1
        end = offset + key_len + _METRICS_VALUE.size
        if key_len == 0 or end > len(data):
            raise FrameError("truncated metrics block")
        try:
            name = bytes(data[offset:offset + key_len]).decode("utf-8")
        except UnicodeDecodeError as exc:
            # A corrupted-in-flight block must surface as a frame
            # error so supervision rejects + retries the reply.
            raise FrameError(f"bad metric name bytes: {exc}") from None
        (value,) = _METRICS_VALUE.unpack_from(data, offset + key_len)
        deltas[name] = int(value)
        offset = end
    if offset != len(data):
        raise FrameError(
            f"{len(data) - offset} trailing bytes after metrics block"
        )
    return deltas


def pack_ops(
    span_id: Optional[int] = None, metrics: bytes = b""
) -> bytes:
    """One ops block: optional span context + optional metric bytes."""
    flags = _OPS_FLAG_SPAN if span_id is not None else 0
    return _OPS_HEADER.pack(
        _OPS_MAGIC, flags, span_id or 0, len(metrics)
    ) + metrics


def unpack_ops_prefix(
    data: bytes,
) -> Tuple[Optional[int], Dict[str, int], bytes]:
    """Peel an ops block off the front of ``data`` (tolerantly).

    Returns ``(span_id, metric_deltas, rest)``.  Bytes that do not
    open with the ops magic are returned untouched as ``rest`` — the
    bare pre-ops payload shape — so receivers parse both generations
    with one call.  A present block with a lying ``metrics_len``
    raises :class:`FrameError`.
    """
    if len(data) < OPS_HEADER_SIZE or bytes(data[:4]) != _OPS_MAGIC:
        return None, {}, data
    magic, flags, span_raw, metrics_len = _OPS_HEADER.unpack_from(data)
    end = OPS_HEADER_SIZE + metrics_len
    if end > len(data):
        raise FrameError(
            f"ops block declares {metrics_len} metric bytes, "
            f"only {len(data) - OPS_HEADER_SIZE} present"
        )
    metrics: Dict[str, int] = {}
    if metrics_len:
        metrics = unpack_metrics(data[OPS_HEADER_SIZE:end])
    span_id = int(span_raw) if flags & _OPS_FLAG_SPAN else None
    return span_id, metrics, data[end:]


def split_ops_prefix_chunks(
    chunks: Sequence[bytes],
) -> Tuple[Optional[int], Dict[str, int], List[bytes]]:
    """Chunk-list variant of :func:`unpack_ops_prefix`.

    Peels the block without joining the remaining chunks, so a
    streamed GRAD/UPDATE body stays non-contiguous end to end.
    """
    head = bytearray()
    for chunk in chunks:
        head += chunk[: OPS_HEADER_SIZE - len(head)]
        if len(head) >= OPS_HEADER_SIZE:
            break
    if len(head) < OPS_HEADER_SIZE or bytes(head[:4]) != _OPS_MAGIC:
        return None, {}, list(chunks)
    magic, flags, span_raw, metrics_len = _OPS_HEADER.unpack(bytes(head))
    block, rest = split_chunk_prefix(
        chunks, OPS_HEADER_SIZE + metrics_len
    )
    metrics: Dict[str, int] = {}
    if metrics_len:
        metrics = unpack_metrics(block[OPS_HEADER_SIZE:])
    span_id = int(span_raw) if flags & _OPS_FLAG_SPAN else None
    return span_id, metrics, rest


def pack_grad_header(
    round_id: int,
    has_batch: bool,
    loss: float,
    compute_seconds: float,
    encode_seconds: float,
    nnz: int,
) -> bytes:
    return _GRAD.pack(
        round_id, 1 if has_batch else 0, loss, compute_seconds,
        encode_seconds, nnz,
    )


def unpack_grad(payload: bytes) -> Tuple[int, bool, float, float, float, int, bytes]:
    """Split a GRAD payload into its header fields + message bytes."""
    if len(payload) < _GRAD.size:
        raise FrameError(f"short GRAD payload ({len(payload)} bytes)")
    round_id, has_batch, loss, compute_s, encode_s, nnz = _GRAD.unpack(
        payload[:_GRAD.size]
    )
    return (
        int(round_id), bool(has_batch), float(loss), float(compute_s),
        float(encode_s), int(nnz), payload[_GRAD.size:],
    )


def pack_update_header(round_id: int, lr: float) -> bytes:
    return _UPDATE.pack(round_id, lr)


def unpack_update(payload: bytes) -> Tuple[int, float, bytes]:
    """Split an UPDATE payload into ``(round, lr, message_bytes)``."""
    if len(payload) < _UPDATE.size:
        raise FrameError(f"short UPDATE payload ({len(payload)} bytes)")
    round_id, lr = _UPDATE.unpack(payload[:_UPDATE.size])
    return int(round_id), float(lr), payload[_UPDATE.size:]


def pack_ack(value: int) -> bytes:
    return _ACK.pack(value)


def unpack_ack(payload: bytes) -> int:
    try:
        (value,) = _ACK.unpack(payload)
    except struct.error as exc:
        raise FrameError(f"bad ACK payload: {exc}") from None
    return int(value)
