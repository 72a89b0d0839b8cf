"""``repro.telemetry``: tracing, metrics, and the flight recorder.

Zero-dependency observability for the codec hot path, the runtime, and
the trainer loop (see ``docs/observability.md``):

* **spans** — nestable context managers carrying the ambient
  ``run/worker/epoch/round/phase`` context;
* **metrics** — typed counters/gauges/histograms (bytes on wire,
  retries, fault injections, sketch collision rates, ...);
* **flight recorder** — per-process JSONL files in the documented
  ``repro-trace/1`` schema, merged driver-side into one ordered trace
  across ``mp``/``aio`` worker processes.

Disabled (the default) it is free in practice: every entry point
checks one module global and returns a shared no-op, and the perf
suite enforces <= 2% overhead on the e2e compress benchmark.

Usage::

    from repro import telemetry

    with telemetry.span("codec.compress", nnz=int(keys.size)):
        ...
    telemetry.counter("transport.bytes_sent", nbytes)

    session = telemetry.start_run("out.jsonl", run_id="demo")
    ...  # traced work
    telemetry.finish_run()          # merged trace at out.jsonl

Submodules :mod:`~repro.telemetry.epoch` (the trainer's single-source
accounting), :mod:`~repro.telemetry.merge`, :mod:`~repro.telemetry.
summary` (the ``python -m repro trace`` renderer), and
:mod:`~repro.telemetry.schema` are imported on demand.
"""

from .recorder import (
    Span,
    TraceRecorder,
    TraceSession,
    active_run_id,
    active_session,
    close_worker_recorder,
    context,
    counter,
    current_span_id,
    enable_worker_recorder,
    enabled,
    event,
    finish_run,
    gauge,
    get_context,
    get_recorder,
    hist,
    ingest_worker_metrics,
    measure,
    metrics_hub,
    remote_parent,
    set_context,
    set_metrics_hub,
    set_recorder,
    span,
    start_run,
    worker_trace_dir,
)
from .schema import SCHEMA, TraceSchemaError, validate_event, validate_trace

__all__ = [
    "SCHEMA",
    "Span",
    "TraceRecorder",
    "TraceSession",
    "TraceSchemaError",
    "active_run_id",
    "active_session",
    "close_worker_recorder",
    "context",
    "counter",
    "current_span_id",
    "enable_worker_recorder",
    "enabled",
    "event",
    "finish_run",
    "gauge",
    "get_context",
    "get_recorder",
    "hist",
    "ingest_worker_metrics",
    "measure",
    "metrics_hub",
    "remote_parent",
    "set_context",
    "set_metrics_hub",
    "set_recorder",
    "span",
    "start_run",
    "validate_event",
    "validate_trace",
    "worker_trace_dir",
]
