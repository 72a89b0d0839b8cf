"""Live ops plane end-to-end: the PR-10 acceptance tier.

One module-scoped traced ``mp`` run with the metrics hub + HTTP
exporter live feeds most of the assertions:

* **exporter/trace parity** — every counter total served by the
  exporter equals the sum of that counter's trace events, bit-exactly,
  in both directions (heartbeat-carried metrics are wire-only by
  design and excluded);
* **span causality across the wire** — worker spans recorded in the
  worker *process* parent under the driver's round span, including
  when the UPDATE streams as chunks;
* **ops-less peers are unaffected** — a worker without the ops
  capability negotiates the plane off and trains bit-identically;
* **critical-path attribution** — ≥99% of every round's wall time on
  the committed 8-worker fleet trace lands in the four real buckets,
  and the causal DAG matches the committed pin;
* **surfaces** — ``repro top --once``, ``repro trace
  --critical-path``, ``--validate`` on a truncated flight.
"""

import json
import os
import urllib.request

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main as repro_main
from repro.core import SketchMLCompressor, SketchMLConfig
from repro.data import kdd10_like, train_test_split
from repro.distributed import DistributedTrainer, TrainerConfig
from repro.distributed.network import infinite_bandwidth
from repro.models import make_model
from repro.optim import SGD
from repro.runtime import RuntimeConfig, SupervisionConfig
from repro.telemetry import recorder as recorder_module
from repro.telemetry.critical_path import (
    causal_edges,
    critical_path,
    render_report,
)
from repro.telemetry.export import MetricsExporter, render_prometheus
from repro.telemetry.merge import read_trace
from repro.telemetry.metrics import (
    DRIVER_KEY,
    MetricsHub,
    SpoolHub,
    WorkerMetrics,
)
from repro.telemetry.top import render_top, snapshot_from_trace

SEED = 7
NUM_WORKERS = 2
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "trace")
GOLDEN_TRACE = os.path.join(GOLDEN_DIR, "fleet_8w.jsonl")
GOLDEN_DAG = os.path.join(GOLDEN_DIR, "fleet_8w_dag.json")
TRUNCATED = os.path.join(GOLDEN_DIR, "truncated_flight.jsonl")

#: Heartbeat-carried metrics never become trace events (wire-only,
#: best-effort) — excluded from the parity sweep by design.
WIRE_ONLY = ("worker.heartbeats", "worker.heartbeat_lag_ns")


@pytest.fixture(autouse=True)
def clean_telemetry_state():
    assert telemetry.get_recorder() is None
    assert telemetry.metrics_hub() is None
    yield
    if telemetry.active_session() is not None:
        telemetry.finish_run()
    leftover = telemetry.set_recorder(None)
    if leftover is not None:
        leftover.close()
    telemetry.set_metrics_hub(None)
    recorder_module._CONTEXT.clear()


def run_ops(backend, out_path, *, hub=None, runtime=None, epochs=1,
            config=None):
    """One fixed-seed training run with the full ops plane live;
    returns ``(theta, trace events, history)``."""
    split = train_test_split(kdd10_like(seed=SEED, scale=0.02), seed=SEED)
    train, _ = split
    config = config or SketchMLConfig.full(seed=SEED)
    trainer = DistributedTrainer(
        model=make_model("lr", train.num_features),
        optimizer=SGD(learning_rate=0.1),
        compressor_factory=lambda: SketchMLCompressor(config),
        network=infinite_bandwidth(),
        config=TrainerConfig(
            num_workers=NUM_WORKERS,
            batch_fraction=0.25,
            epochs=epochs,
            seed=SEED,
            backend=backend,
        ),
        runtime=runtime,
    )
    if hub is not None:
        telemetry.set_metrics_hub(hub)
    if out_path:
        telemetry.start_run(out_path, run_id=f"obs-{backend}")
    try:
        history = trainer.train(*split)
    finally:
        if out_path and telemetry.active_session() is not None:
            telemetry.finish_run()
        telemetry.set_metrics_hub(None)
    events = read_trace(out_path) if out_path else None
    return trainer.theta, events, history


def clean_runtime(backend, **kwargs):
    """Heartbeats off: every metric delta rides a reply, in-round, so
    delivery — and therefore exporter/trace parity — is exact."""
    return RuntimeConfig(
        backend=backend,
        supervision=SupervisionConfig(
            seed=SEED, heartbeat_interval=0.0
        ),
        **kwargs,
    )


def trace_counter_sums(events):
    sums = {}
    for event in events:
        if event.get("type") != "counter":
            continue
        attrs = event.get("attrs") or {}
        worker = attrs.get("worker", event.get("worker"))
        key = DRIVER_KEY if worker is None else int(worker)
        per = sums.setdefault(key, {})
        per[event["name"]] = per.get(event["name"], 0) + int(event["value"])
    return sums


@pytest.fixture(scope="module")
def obs_run(tmp_path_factory):
    """The smoke run: traced seeded mp training with hub + exporter."""
    path = str(tmp_path_factory.mktemp("obs") / "mp.jsonl")
    hub = MetricsHub()
    exporter = MetricsExporter(hub, port=0).start()
    try:
        theta, events, _ = run_ops(
            "mp", path, hub=hub, runtime=clean_runtime("mp")
        )
        with urllib.request.urlopen(
            f"{exporter.url}/snapshot.json", timeout=5
        ) as resp:
            snapshot = json.loads(resp.read())
        with urllib.request.urlopen(
            f"{exporter.url}/metrics", timeout=5
        ) as resp:
            prom = resp.read().decode()
        with urllib.request.urlopen(
            f"{exporter.url}/readyz", timeout=5
        ) as resp:
            ready_status = resp.status
    finally:
        exporter.close()
    return {
        "theta": theta,
        "events": events,
        "hub": hub,
        "snapshot": snapshot,
        "prom": prom,
        "ready_status": ready_status,
    }


class TestExporterTraceParity:
    def test_counter_totals_match_trace_sums_bit_exactly(self, obs_run):
        trace_sums = trace_counter_sums(obs_run["events"])
        hub_counters = {
            int(worker): dict(per)
            for worker, per in obs_run["snapshot"]["counters"].items()
        }
        for worker, per in trace_sums.items():
            for name, total in per.items():
                assert hub_counters.get(worker, {}).get(name) == total, (
                    f"hub lost or distorted {name} for worker {worker}"
                )
        for worker, per in hub_counters.items():
            for name, total in per.items():
                if name in WIRE_ONLY:
                    continue
                assert trace_sums.get(worker, {}).get(name) == total, (
                    f"hub invented {name} for worker {worker}"
                )

    def test_worker_codec_counters_crossed_the_wire(self, obs_run):
        # Not just the runtime's own worker.* counters: the codec's
        # instrumentation inside the worker process reaches the hub.
        counters = obs_run["snapshot"]["counters"]
        for worker in range(NUM_WORKERS):
            per = counters[str(worker)]
            assert per["worker.steps"] > 0
            assert per["codec.messages"] > 0
            assert per["worker.bytes_out"] > 0

    def test_bytes_out_meters_the_shipped_message(self, tmp_path):
        # worker.bytes_out counts the serialized message as sent, not
        # the codec's num_bytes (its plain payload-v2 length): both workers
        # ship dense-coded v2 indexes.
        _, events, history = run_ops(
            "mp", str(tmp_path / "bytes.jsonl"),
            runtime=clean_runtime("mp", entropy_coding=True),
            config=SketchMLConfig.keys_and_quantization(seed=SEED),
        )
        sums = trace_counter_sums(events)
        assert all(sums[w]["worker.bytes_out"] > 0 for w in (0, 1))
        assert sum(
            per.get("worker.bytes_out", 0) for per in sums.values()
        ) == history.total_bytes_sent

    def test_snapshot_reports_wire_settings(self, obs_run):
        info = obs_run["snapshot"]["info"]
        assert info["backend"] == "mp"
        assert info["workers"] == NUM_WORKERS
        assert "entropy_coding" in info
        assert "chunk_bytes" in info

    def test_prometheus_text_and_readiness(self, obs_run):
        prom = obs_run["prom"]
        assert 'repro_worker_steps_total{worker="0"}' in prom
        assert "# TYPE repro_worker_steps_total counter" in prom
        assert obs_run["ready_status"] == 200

    def test_prometheus_totals_match_snapshot(self, obs_run):
        rendered = render_prometheus(obs_run["hub"])
        steps = obs_run["snapshot"]["counters"]["0"]["worker.steps"]
        assert f'repro_worker_steps_total{{worker="0"}} {steps}' in rendered


class TestSpanCausality:
    def _driver_round_ids(self, events):
        driver_pid = next(
            e["pid"] for e in events
            if e["type"] == "meta" and e.get("source") == "driver"
        )
        return {
            e["span"]
            for e in events
            if e["type"] == "span" and e.get("name") == "trainer.round"
            and e["pid"] == driver_pid
        }

    def test_worker_spans_parent_under_driver_rounds(self, obs_run):
        events = obs_run["events"]
        rounds = self._driver_round_ids(events)
        worker_spans = [
            e for e in events
            if e["type"] == "span"
            and e.get("name") in ("worker.step", "worker.update")
            and e.get("worker") is not None
        ]
        assert worker_spans, "no worker spans in the merged trace"
        crossed = [e for e in worker_spans if e.get("parent") in rounds]
        # Every worker span recorded in a *worker process* must parent
        # under a driver round span via the wire-propagated context.
        driver_pid = next(
            e["pid"] for e in events
            if e["type"] == "meta" and e.get("source") == "driver"
        )
        remote = [e for e in worker_spans if e["pid"] != driver_pid]
        assert remote, "expected worker-process spans in an mp trace"
        assert all(e.get("parent") in rounds for e in remote)
        assert len(crossed) >= len(remote)

    def test_chunked_update_preserves_span_context(self, tmp_path):
        # Chunk every UPDATE broadcast: the span context must survive
        # the CHUNK/END stream, not just contiguous frames.
        path = str(tmp_path / "chunked.jsonl")
        _, events, _ = run_ops(
            "mp", path,
            runtime=clean_runtime("mp", chunk_bytes=256),
        )
        rounds = self._driver_round_ids(events)
        driver_pid = next(
            e["pid"] for e in events
            if e["type"] == "meta" and e.get("source") == "driver"
        )
        updates = [
            e for e in events
            if e["type"] == "span" and e.get("name") == "worker.update"
            and e["pid"] != driver_pid
        ]
        assert updates, "chunked run recorded no worker.update spans"
        assert all(e.get("parent") in rounds for e in updates)

    def test_ops_plane_keeps_backends_bit_identical(self, tmp_path):
        thetas = {}
        for backend in ("sim", "mp", "aio"):
            hub = MetricsHub()
            thetas[backend], _, _ = run_ops(
                "sim" if backend == "sim" else backend,
                str(tmp_path / f"{backend}.jsonl"),
                hub=hub,
                runtime=(
                    None if backend == "sim" else clean_runtime(backend)
                ),
            )
        for backend in ("mp", "aio"):
            np.testing.assert_array_equal(
                thetas[backend], thetas["sim"]
            )


class TestCriticalPath:
    @pytest.fixture(scope="class")
    def golden_events(self):
        return read_trace(GOLDEN_TRACE)

    def test_attributes_99_percent_of_golden_rounds(self, golden_events):
        report = critical_path(golden_events)
        assert report.rounds, "golden fleet trace has no rounds"
        for r in report.rounds:
            assert r.coverage >= 0.95, (
                f"round {r.round}: only {r.coverage:.2%} attributed "
                f"({r.buckets})"
            )
        totals = report.totals()
        # The ISSUE's acceptance bar: ≥99% of golden wall time lands
        # in the four real buckets.
        assert abs(totals["other"]) <= 0.01 * totals["wall"]
        assert totals["codec"] > 0
        assert totals["compute"] > 0

    def test_causal_dag_matches_pin(self, golden_events):
        with open(GOLDEN_DAG, "r", encoding="utf-8") as fh:
            pinned = json.load(fh)
        assert pinned["format"] == "repro-causal-dag/1"
        got = [list(edge) for edge in causal_edges(golden_events)]
        assert got == pinned["edges"], (
            "causal DAG drifted from the committed pin — regenerate "
            "deliberately with tests/golden/trace/regen_fleet.py"
        )

    def test_render_report_shape(self, golden_events):
        text = render_report(
            critical_path(golden_events), per_round=True
        )
        assert "straggler_wait" in text
        assert "attributed:" in text
        assert "round 0" in text

    def test_preops_trace_is_rejected(self):
        events = [
            {"type": "meta", "ts": 0.0, "pid": 1, "seq": 0,
             "schema": "repro-trace/1", "source": "driver"},
            {"type": "span", "name": "trainer.round", "ts": 1.0,
             "pid": 1, "seq": 1, "dur": 0.5},
        ]
        with pytest.raises(ValueError, match="span ids"):
            critical_path(events)


class TestCliSurfaces:
    def test_trace_critical_path_renders(self, capsys):
        assert repro_main(
            ["trace", GOLDEN_TRACE, "--critical-path"]
        ) == 0
        out = capsys.readouterr().out
        assert "attributed:" in out

    def test_trace_critical_path_json(self, capsys):
        assert repro_main(
            ["trace", GOLDEN_TRACE, "--critical-path",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rounds"]
        assert set(payload["totals"]) >= {"codec", "compute", "wall"}

    def test_validate_rejects_truncated_flight(self, capsys):
        assert repro_main(["trace", TRUNCATED, "--validate"]) == 1
        assert "never closed" in capsys.readouterr().err

    def test_validate_accepts_complete_flight(self, capsys):
        assert repro_main(["trace", GOLDEN_TRACE, "--validate"]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_top_once_renders_golden(self, capsys):
        assert repro_main(["top", GOLDEN_TRACE, "--once"]) == 0
        out = capsys.readouterr().out
        assert "worker" in out
        assert "steps" in out
        # 8 worker rows from the fleet trace.
        assert all(f"\n{w:>8} " in out for w in range(8))

    def test_top_requires_exactly_one_source(self, capsys):
        assert repro_main(["top"]) == 2
        assert repro_main(
            ["top", GOLDEN_TRACE, "--connect", "127.0.0.1:1"]
        ) == 2


class TestHubUnits:
    def test_worker_metrics_take_drains(self):
        spool = WorkerMetrics()
        spool.add("a", 2)
        spool.add("a", 3)
        spool.add("b")
        assert spool.peek() == {"a": 5, "b": 1}
        assert spool.take() == {"a": 5, "b": 1}
        assert spool.take() == {}

    def test_spoolhub_captures_counters_not_gauges(self):
        spool = WorkerMetrics()
        hub = SpoolHub(spool)
        hub.record_counter("x", 4, worker=9)
        hub.record_gauge("g", 1.5, worker=9)
        assert spool.take() == {"x": 4}

    def test_hub_ingest_and_totals(self):
        hub = MetricsHub()
        hub.ingest(3, {"worker.steps": 2})
        hub.ingest(3, {"worker.steps": 1})
        hub.record_counter("trainer.rounds", 5)
        assert hub.counter_total("worker.steps") == 3
        assert hub.counter_total("worker.steps", worker=3) == 3
        snap = hub.snapshot()
        assert snap["counters"]["3"]["worker.steps"] == 3
        assert snap["counters"][str(DRIVER_KEY)]["trainer.rounds"] == 5
        assert snap["last_seen"]["3"] > 0

    def test_empty_ingest_marks_liveness(self):
        hub = MetricsHub()
        hub.ingest(1, {})
        assert hub.worker_ids() == [1]

    def test_render_top_offline(self):
        events = read_trace(GOLDEN_TRACE)
        snapshot = snapshot_from_trace(events)
        text = render_top(snapshot, now=0.0)
        assert "repro top" in text
        assert "ready" in text

    def test_metrics_enabled_overhead_within_budget(self):
        from repro.perf.overhead import measure_overhead

        report = measure_overhead(nnz=2_000, repeats=2, metrics_hub=True)
        assert report.metrics_enabled
        assert report.within_budget, report.describe()
        assert "metrics-hub" in report.describe()
