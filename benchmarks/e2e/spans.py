"""In-memory span recorder and the wrappers a traced run installs.

Nothing under ``src/`` knows about this file: a traced run replaces
the public methods at each layer boundary with timing wrappers for the
duration of one ``train()`` call and restores them afterwards.  Spans
carry ``name, start, end, parent, run`` and are kept in memory; the
runner writes them out once, at exit.

The trainers' round loops are not a callable boundary, so a *round*
span is synthesised: it opens when ``RuntimeCluster.step`` is entered
and closes when the driver-side ``Adam.step`` returns.  A ``step`` that
comes back with no batches (the end-of-epoch probe) becomes a
``trainer.drain`` span instead and is not counted as a round.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Dict, Iterator, List, Optional

__all__ = ["SpanRecorder", "capture_supervision", "tracing"]

ROUND = "trainer.round"
DRAIN = "trainer.drain"
ROOT = "trainer.train"


class SpanRecorder:
    """Nested spans on one thread, plus the per-round result fields."""

    #: how many rounds' worth of worker messages are kept as probe operands
    KEEP_ROUNDS = 8

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``[name, start, end, parent]`` per span; index is the span id
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: per-round fields read from ``RoundResult``
        self.worker_rounds: List[dict] = []
        #: per-round fields read from ``DriverStepResult``
        self.driver_rounds: List[dict] = []
        self.broadcast_bytes: List[int] = []
        #: ``(messages, weights)`` of the first ``KEEP_ROUNDS`` aggregates
        self.kept_aggregates: List[tuple] = []

    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        span_id = len(self.spans) - 1
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        now = time.perf_counter()
        if span_id not in self._stack:
            return
        # Close anything left open above it (an exception unwound past
        # a synthetic round).
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == span_id:
                return

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        span_id = self.open(name)
        try:
            yield span_id
        finally:
            self.close(span_id)

    def top_name(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def close_round(self) -> None:
        """Close a round left open by a skipped (empty-aggregate) apply."""
        if self.top_name() == ROUND:
            self.close(self._stack[-1])

    # ------------------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def tiled_seconds(self) -> float:
        """Seconds covered by layer spans directly under the root or a
        round — what the residual is measured against."""
        containers = {
            i for i, s in enumerate(self.spans)
            if s[0] in (ROOT, ROUND, DRAIN)
        }
        return sum(
            s[2] - s[1] for i, s in enumerate(self.spans)
            if i not in containers and s[3] in containers
        )

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: duration minus what its child spans cover."""
        child_cover = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child_cover[s[3]] += s[2] - s[1]
        out: Dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1]) - child_cover[i]
        return out

    def to_json(self) -> dict:
        return {
            "run": self.run_id,
            "spans": [
                {"id": i, "name": s[0], "start": s[1], "end": s[2],
                 "parent": s[3], "run": self.run_id}
                for i, s in enumerate(self.spans)
            ],
        }


def _patch(patches: list, owner, attr: str, make) -> None:
    original = getattr(owner, attr)
    wrapper = functools.wraps(original)(make(original))
    # An inherited method is patched on the subclass and deleted again
    # on restore, so the base class is never touched.
    patches.append((owner, attr, original, attr in vars(owner)))
    setattr(owner, attr, wrapper)


def _restore(patches: list) -> None:
    while patches:
        owner, attr, original, own = patches.pop()
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


@contextlib.contextmanager
def capture_supervision(into: Dict[str, int]) -> Iterator[None]:
    """Copy ``Supervisor.stats`` out of the trainer's cluster as it closes.

    The trainers own their cluster, so this one hook is also installed
    in untraced runs: a fault-free run must show zero retries, timeouts
    and lost workers.  It costs one dict copy per ``train()``.
    """
    from repro.runtime import RuntimeCluster

    patches: list = []

    def make(original):
        def close(self):
            into.update(self.supervisor.stats)
            return original(self)
        return close

    _patch(patches, RuntimeCluster, "close", make)
    try:
        yield
    finally:
        _restore(patches)


@contextlib.contextmanager
def tracing(rec: SpanRecorder, model, optimizer) -> Iterator[None]:
    """Wrap each layer's public entry points for one ``train()`` call."""
    from repro.distributed.driver import Driver
    from repro.runtime import RuntimeCluster

    patches: list = []

    def simple(name: str, top_level: bool = False):
        def make(original):
            def wrapper(*args, **kwargs):
                if top_level:
                    rec.close_round()
                with rec.span(name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def make_step(original):
        def step(self, round_id, lr, workers=None):
            rec.close_round()
            round_span = rec.open(ROUND)
            with rec.span("cluster.step") as step_span:
                results = original(self, round_id, lr, workers)
            active = [r for r in results.values() if r.has_batch]
            if not active:
                rec.spans[round_span][0] = DRAIN
                rec.close(round_span)
                return results
            step_s = rec.spans[step_span][2] - rec.spans[step_span][1]
            rec.worker_rounds.append({
                "step_s": step_s,
                "compute_s": [r.compute_seconds for r in active],
                "encode_s": [r.encode_seconds for r in active],
                "message_bytes": [r.message_bytes for r in active],
            })
            return results
        return step

    def make_aggregate(original):
        def aggregate(self, messages, weights=None):
            with rec.span("driver.aggregate"):
                result = original(self, messages, weights)
            rec.driver_rounds.append({
                "decode_s": result.decode_seconds,
                "merge_s": result.aggregate_seconds,
                "encode_s": result.encode_seconds,
                "messages": len(messages),
            })
            if len(rec.kept_aggregates) < rec.KEEP_ROUNDS:
                rec.kept_aggregates.append((list(messages), weights))
            return result
        return aggregate

    def make_broadcast(original):
        def broadcast(self, round_id, lr, message_bytes=None, workers=None,
                      *, message=None):
            with rec.span("cluster.broadcast"):
                acked = original(self, round_id, lr, message_bytes, workers,
                                 message=message)
            if message_bytes is not None:
                # v1-serialised update size x recipients (v2 peers get
                # a re-serialised payload of about the same size)
                rec.broadcast_bytes.append(len(message_bytes) * len(acked))
            return acked
        return broadcast

    def make_apply(original):
        def step(self, theta, keys, values):
            # On ``sim`` the in-process worker replicas apply the same
            # update inside cluster.broadcast; only the driver's own
            # apply ends the round.
            in_round = rec.top_name() == ROUND
            with rec.span("optim.apply" if in_round else "worker.apply"):
                out = original(self, theta, keys, values)
            if in_round:
                rec.close_round()
            return out
        return step

    _patch(patches, RuntimeCluster, "__init__", simple("trainer.boot"))
    _patch(patches, RuntimeCluster, "start_epoch",
           simple("cluster.start_epoch", top_level=True))
    _patch(patches, RuntimeCluster, "step", make_step)
    _patch(patches, RuntimeCluster, "broadcast", make_broadcast)
    _patch(patches, RuntimeCluster, "close",
           simple("cluster.close", top_level=True))
    _patch(patches, Driver, "aggregate", make_aggregate)
    _patch(patches, type(optimizer), "step", make_apply)
    _patch(patches, type(model), "full_loss",
           simple("trainer.eval", top_level=True))
    try:
        yield
    finally:
        _restore(patches)
