"""In-process replicas share one decode of each broadcast UPDATE.

Every replica applies the *decoded* aggregate, so the ``sim`` workers
of one :class:`RuntimeCluster` — which receive equal UPDATE bytes —
share one read-only decode through the process's
:class:`~repro.runtime.worker_runtime.UpdateMemo`.  These tests pin
that a broadcast is decoded exactly once, that the shared arrays are
read-only, that streamed (``CHUNK``/``END``) updates share too, that
theta stays bit-identical across backends, and that a corrupted or
forged delivery is decoded on its own, fails alone and is never
cached.
"""

import dataclasses

import numpy as np
import pytest

from repro import sanitize, telemetry
from repro.core import SketchMLCompressor, SketchMLConfig
from repro.core.serialization import deserialize_message
from repro.data import kdd10_like, train_test_split
from repro.distributed.driver import aggregate_sparse_gradients
from repro.distributed.network import infinite_bandwidth
from repro.fleet import FleetConfig, FleetTrainer, MembershipSchedule
from repro.models import make_model
from repro.optim import SGD, Adam
from repro.runtime import (
    FaultSchedule,
    RuntimeCluster,
    RuntimeConfig,
    SupervisionConfig,
)
from repro.runtime import worker_runtime
from repro.runtime.worker_runtime import UpdateMemo
from repro.sanitize import SanitizerError
from repro.telemetry.merge import read_trace
from repro.telemetry.recorder import TraceRecorder
from tests.test_runtime_faults import SEED, make_bootstraps

NUM_WORKERS = 3
LR = 0.1


@pytest.fixture(scope="module")
def dataset():
    return kdd10_like(seed=SEED, scale=0.02)


def driver_codec():
    return SketchMLCompressor(SketchMLConfig.full(seed=SEED))


def make_cluster(dataset, schedule=None, **cfg):
    config = RuntimeConfig(
        backend="sim",
        supervision=SupervisionConfig(
            message_timeout=5.0, max_retries=3,
            backoff_base=0.0, backoff_jitter=0.0, seed=SEED,
        ),
        fault_schedule=schedule,
        **cfg,
    )
    return RuntimeCluster(make_bootstraps(dataset, NUM_WORKERS), config)


def aggregate(cluster, results, dataset, codec=None):
    """The driver's side of a round: merge the GRADs, encode the update."""
    codec = codec or driver_codec()
    grads = [
        codec.decompress(r.message) for r in results.values() if r.has_batch
    ]
    keys, values = aggregate_sparse_gradients(grads)
    message = codec.compress(keys, values, dataset.num_features)
    return message, cluster.encode_update(message)


class DecodeCounter:
    """Counts worker-side deserializations, decompressions and memo
    stores.  Decompressions are counted inside :meth:`broadcast` only,
    so the driver's own codec calls are not."""

    def __init__(self, monkeypatch):
        self.deserialize = self.decompress = self.stored = 0
        self._monkeypatch = monkeypatch
        for name in ("deserialize_message", "deserialize_message_chunks"):
            monkeypatch.setattr(
                worker_runtime, name,
                self._counted("deserialize", getattr(worker_runtime, name)),
            )
        monkeypatch.setattr(
            UpdateMemo, "put", self._counted("stored", UpdateMemo.put)
        )

    def _counted(self, attr, fn):
        def counted(*args):
            setattr(self, attr, getattr(self, attr) + 1)
            return fn(*args)

        return counted

    def broadcast(self, cluster, *args, **kwargs):
        """``cluster.broadcast`` with worker decompressions counted."""
        decompress = self._counted("decompress", SketchMLCompressor.decompress)
        with self._monkeypatch.context() as patch:
            patch.setattr(SketchMLCompressor, "decompress", decompress)
            return cluster.broadcast(*args, **kwargs)

    def totals(self):
        return self.deserialize, self.decompress, self.stored


@pytest.mark.parametrize(
    "wire", [{}, {"entropy_coding": True, "chunk_bytes": 256}],
    ids=["contiguous", "chunked"],
)
def test_one_decode_per_broadcast(dataset, monkeypatch, wire):
    counts = DecodeCounter(monkeypatch)
    with make_cluster(dataset, **wire) as cluster:
        cluster.start_epoch(0)
        for round_id in range(3):
            results = cluster.step(round_id, LR)
            _, update = aggregate(cluster, results, dataset)
            if wire:
                assert len(update) > wire["chunk_bytes"]  # it streamed
            before = counts.totals()
            acked = counts.broadcast(cluster, round_id, LR, update)
            assert acked == list(range(NUM_WORKERS))
            after = counts.totals()
            assert [b - a for a, b in zip(before, after)] == [1, 1, 1]


def test_shared_decode_is_read_only(dataset, monkeypatch):
    applied = []
    step = SGD.step

    def recording_step(optimizer, theta, keys, values):
        applied.append((keys, values))
        return step(optimizer, theta, keys, values)

    monkeypatch.setattr(SGD, "step", recording_step)
    with make_cluster(dataset) as cluster:
        cluster.start_epoch(0)
        _, update = aggregate(cluster, cluster.step(0, LR), dataset)
        cluster.broadcast(0, LR, update)
    assert len(applied) == NUM_WORKERS
    keys, values = applied[0]
    # Every replica applied the very same arrays ...
    assert all(k is keys and v is values for k, v in applied)
    # ... which no replica can write into.
    for array in (keys, values):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[:1] = 0


def test_update_spans_report_shared_decodes(dataset, tmp_path):
    path = str(tmp_path / "trace.jsonl")
    previous = telemetry.set_recorder(TraceRecorder(path))
    try:
        with make_cluster(dataset) as cluster:
            cluster.start_epoch(0)
            _, update = aggregate(cluster, cluster.step(0, LR), dataset)
            cluster.broadcast(0, LR, update)
    finally:
        telemetry.set_recorder(previous).close()
    events = read_trace(path)
    spans = sorted(
        (e for e in events
         if e["type"] == "span" and e["name"] == "worker.update"),
        key=lambda e: e["worker"],
    )
    assert [s["worker"] for s in spans] == list(range(NUM_WORKERS))
    first, *rest = spans
    assert first["attrs"]["decode_s"] > 0
    assert "shared" not in first["attrs"]
    for span in rest:
        assert span["attrs"]["decode_s"] == 0.0
        assert span["attrs"]["shared"] is True
    # worker.decode_ns counts real decodes only: one per broadcast.
    decodes = [
        e for e in events
        if e["type"] == "counter" and e["name"] == "worker.decode_ns"
    ]
    assert len(decodes) == 1 and decodes[0]["value"] > 0
    updates = [
        e for e in events
        if e["type"] == "counter" and e["name"] == "worker.updates"
    ]
    assert len(updates) == NUM_WORKERS


def test_corrupted_delivery_misses_and_leaves_the_memo(dataset, monkeypatch):
    """Worker 1's copy of the round-0 UPDATE (its send index 2, after
    EPOCH and STEP) is corrupted.  It misses the memo and fails alone;
    worker 0's good decode stays, so the re-sent round is all hits and
    every replica lands where the fault-free run does."""

    def run(schedule, counts=None):
        with make_cluster(dataset, schedule=schedule) as cluster:
            cluster.start_epoch(0)
            _, update = aggregate(cluster, cluster.step(0, LR), dataset)
            if schedule is not None:
                with pytest.raises(ValueError):
                    counts.broadcast(cluster, 0, LR, update)
                assert cluster.transport.stats["corrupts"] == 1
                # One good decode (worker 0) and one failed (worker 1).
                assert (counts.deserialize, counts.stored) == (2, 1)
                failed = counts.totals()
            acked = (
                counts.broadcast(cluster, 0, LR, update) if counts
                else cluster.broadcast(0, LR, update)
            )
            assert acked == list(range(NUM_WORKERS))
            if counts is not None:
                # The retry decoded nothing: worker 0 re-acked, workers
                # 1 and 2 applied the decode the corruption left alone.
                assert counts.totals() == failed
            after = cluster.step(1, LR)
        return {
            w: (r.local_loss, r.gradient_nnz, r.message_bytes)
            for w, r in after.items()
        }

    clean = run(None)
    counts = DecodeCounter(monkeypatch)
    faulty = run(FaultSchedule().add("corrupt", "send", 1, 2), counts)
    assert faulty == clean


def forged_update(cluster, dataset):
    """A well-formed update whose decay scale lies outside the
    encoder's [1, 8] clamp: it decodes, but the sanitizer rejects it."""
    cluster.start_epoch(0)
    message, update = aggregate(cluster, cluster.step(0, LR), dataset)
    payload = dataclasses.replace(message.payload, decay_scale=0.5)
    forged = cluster.encode_update(dataclasses.replace(message, payload=payload))
    with sanitize.sanitized(False):
        driver_codec().decompress(deserialize_message(forged))
    return update, forged


def test_forged_update_rejected_by_every_worker(dataset, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize.enabled()
    counts = DecodeCounter(monkeypatch)
    with make_cluster(dataset) as cluster:
        update, forged = forged_update(cluster, dataset)
        for worker_id in range(NUM_WORKERS):
            with pytest.raises(SanitizerError):
                counts.broadcast(cluster, 0, LR, forged, workers=[worker_id])
        # Each worker decoded the forgery itself: a failure is never
        # stored, so nothing was there to hit.
        assert counts.totals() == (NUM_WORKERS, NUM_WORKERS, 0)
        acked = counts.broadcast(cluster, 0, LR, update)
        assert acked == list(range(NUM_WORKERS))
        assert counts.totals() == (NUM_WORKERS + 1, NUM_WORKERS + 1, 1)


def _fleet_theta(split, backend, config):
    train, test = split
    trainer = FleetTrainer(
        model=make_model("lr", train.num_features),
        optimizer=Adam(learning_rate=0.01),
        compressor_factory=lambda: SketchMLCompressor(config),
        network=infinite_bandwidth(),
        schedule=MembershipSchedule(num_workers=NUM_WORKERS),
        config=FleetConfig(
            epochs=1, batch_fraction=0.25, seed=SEED, backend=backend,
        ),
        runtime=RuntimeConfig(
            backend=backend, entropy_coding=True, chunk_bytes=1024
        ),
    )
    trainer.train(train, test)
    return trainer.theta


@pytest.mark.parametrize(
    "config",
    [
        SketchMLConfig.full(seed=SEED),
        SketchMLConfig.keys_and_quantization(seed=SEED),
    ],
    ids=["SketchML", "Adam+Key+Quan"],
)
def test_theta_bit_identical_across_backends(config):
    split = train_test_split(kdd10_like(seed=SEED, scale=0.02), seed=SEED)
    sim = _fleet_theta(split, "sim", config)
    for backend in ("mp", "aio"):
        np.testing.assert_array_equal(_fleet_theta(split, backend, config), sim)
