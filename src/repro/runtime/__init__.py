"""repro.runtime — real multi-process execution backends for training.

The simulated trainer models a cluster; this package *runs* one.  Each
worker is a real OS process (``mp`` / ``aio`` backends) or an
in-process handler with a simulated network cost model (``sim``), and
every gradient exchange round-trips through the same
``serialize_message`` / ``deserialize_message`` wire bytes on every
backend.

Layers, bottom up:

* :mod:`~repro.runtime.framing` — the ``SKRT`` frame codec (wire
  module).
* :mod:`~repro.runtime.transport` — byte delivery: ``sim`` loopback,
  ``mp`` pipes.
* :mod:`~repro.runtime.aio` — the socket backend: every worker's
  host-local TCP socket multiplexed on one ``selectors`` loop with
  zero-copy frame reassembly and bounded, backpressured queues.
* :mod:`~repro.runtime.faults` — seeded drop/delay/duplicate/corrupt
  injection wrapping any transport.
* :mod:`~repro.runtime.supervision` — timeouts, bounded retries with
  backoff + jitter, heartbeats, fail-fast/drop policies.
* :mod:`~repro.runtime.worker_runtime` / :mod:`~repro.runtime.
  worker_main` — worker-side replica state + process entry points.
* :mod:`~repro.runtime.cluster` — the driver-side orchestration the
  trainer talks to.

See ``docs/runtime.md`` for the backend matrix and supervision
semantics.
"""

from .cluster import ClusterError, RoundResult, RuntimeCluster, RuntimeConfig
from .faults import FaultConfig, FaultSchedule, FaultyTransport
from .framing import FrameError
from .supervision import (
    HeartbeatLostError,
    RetryExhaustedError,
    SupervisionConfig,
    Supervisor,
    WorkerCrashedError,
    WorkerSupervisionError,
)
from .aio import AioTransport
from .transport import (
    TRANSPORT_BACKENDS,
    MultiprocessTransport,
    SimTransport,
    Transport,
    TransportBackpressure,
    TransportClosed,
    TransportError,
    TransportTimeout,
    make_transport,
)
from .worker_runtime import WorkerBootstrap, WorkerRuntime

__all__ = [
    "ClusterError",
    "RoundResult",
    "RuntimeCluster",
    "RuntimeConfig",
    "FaultConfig",
    "FaultSchedule",
    "FaultyTransport",
    "FrameError",
    "HeartbeatLostError",
    "RetryExhaustedError",
    "SupervisionConfig",
    "Supervisor",
    "WorkerCrashedError",
    "WorkerSupervisionError",
    "TRANSPORT_BACKENDS",
    "AioTransport",
    "MultiprocessTransport",
    "SimTransport",
    "Transport",
    "TransportBackpressure",
    "TransportClosed",
    "TransportError",
    "TransportTimeout",
    "make_transport",
    "WorkerBootstrap",
    "WorkerRuntime",
]
