"""repro.fleet — elastic membership + trace-driven fleet replay.

Two halves (see ``docs/fleet.md``):

* **Elastic + stale execution** — :class:`FleetTrainer` runs training
  over the real runtime backends with a seeded
  :class:`MembershipSchedule` (workers join/leave mid-run, shards are
  deterministically re-partitioned, aggregation re-weighted) and an
  optional bounded-staleness gate (``--stale N``) that folds the SSP
  semantics of :mod:`repro.distributed.ssp_trainer` into the wire
  protocol.  All scheduling decisions are driver-side and seeded, so a
  fixed seed is bit-identical across ``sim`` / ``mp`` / ``aio``.

* **Trace-driven fleet replay** — :func:`fit_cost_model` distils a
  recorded ``repro-trace/1`` flight into per-worker cost
  distributions, and :func:`simulate_fleet` plays scaled what-if
  fleets (thousands of workers, diurnal load, correlated stragglers,
  churn) against them in virtual time, emitting a valid synthetic
  trace plus a fleet summary (``repro replay``).
"""

from .costmodel import CostModel, WorkerCost, fit_cost_model
from .membership import (
    MembershipEvent,
    MembershipSchedule,
    ScheduleError,
    shard_weights,
)
from .replay import ReplayError, run_replay
from .simulator import FleetResult, FleetScenario, simulate_fleet
from .trainer import FleetConfig, FleetTrainer

__all__ = [
    "CostModel",
    "WorkerCost",
    "fit_cost_model",
    "MembershipEvent",
    "MembershipSchedule",
    "ScheduleError",
    "shard_weights",
    "ReplayError",
    "run_replay",
    "FleetResult",
    "FleetScenario",
    "simulate_fleet",
    "FleetConfig",
    "FleetTrainer",
]
