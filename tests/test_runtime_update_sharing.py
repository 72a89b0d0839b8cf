"""In-process replicas share one decode and one apply of each UPDATE.

The ``sim`` workers of one :class:`RuntimeCluster` that have applied
the same update history share one copy-on-write
:class:`~repro.runtime.worker_runtime.Replica` (theta + optimizer).
The first to get a broadcast decodes it and applies it to a copy; the
others adopt that copy through the link it leaves on the old replica.
These tests pin that a broadcast is decoded and applied exactly once,
contiguous and streamed (``CHUNK``/``END``) alike; that a sync round
leaves one live replica, also once a worker has left; that a replica another runtime has not moved
past yet is never written; that theta stays bit-identical across
backends, elastic joins included; that a spawned worker never copies;
that a corrupted delivery is decoded on its own, dropped unanswered by
the worker that got it (the supervisor retries) and leaves the link
alone; and that a forged update changes only its receiver.  Bootstraps
carry an unprepared optimizer, so none of the driver's state rides
them.
"""

import contextlib
import dataclasses
import gc
import pickle

import numpy as np
import pytest

from repro import runtime as runtime_pkg
from repro import sanitize, telemetry
from repro.core import SketchMLCompressor, SketchMLConfig
from repro.core.serialization import deserialize_message, serialize_message
from repro.data import kdd10_like, kdd12_like, train_test_split
from repro.distributed import DistributedTrainer, TrainerConfig
from repro.distributed.driver import aggregate_sparse_gradients
from repro.distributed.network import infinite_bandwidth
from repro.fleet import (
    FleetConfig,
    FleetTrainer,
    MembershipEvent,
    MembershipSchedule,
)
from repro.models import make_model
from repro.optim import Adam
from repro.runtime import (
    FaultSchedule,
    RetryExhaustedError,
    RuntimeCluster,
    RuntimeConfig,
    SupervisionConfig,
)
from repro.runtime import worker_runtime
from repro.runtime.cluster import DRIVER_SENDER
from repro.runtime.framing import (
    KIND_UPDATE,
    FrameError,
    pack_frame,
    pack_update_header,
)
from repro.runtime.worker_runtime import Replica, WorkerRuntime
from repro.telemetry.merge import read_trace
from repro.telemetry.recorder import TraceRecorder
from tests.test_runtime_faults import SEED
from tests.test_runtime_faults import make_bootstraps as sgd_bootstraps

NUM_WORKERS = 3
LR = 0.1


@pytest.fixture(scope="module")
def dataset():
    return kdd10_like(seed=SEED, scale=0.02)


def driver_codec():
    return SketchMLCompressor(SketchMLConfig.full(seed=SEED))


def make_bootstraps(dataset, num_workers=NUM_WORKERS):
    """The fault suite's bootstraps, each with its own unprepared Adam."""
    return [
        dataclasses.replace(spec, optimizer=Adam(learning_rate=LR))
        for spec in sgd_bootstraps(dataset, num_workers)
    ]


def make_cluster(
    dataset, schedule=None, backend="sim", timeout=5.0,
    policy="fail_fast", **cfg,
):
    config = RuntimeConfig(
        backend=backend,
        supervision=SupervisionConfig(
            message_timeout=timeout, max_retries=3,
            backoff_base=0.0, backoff_jitter=0.0,
            straggler_policy=policy, seed=SEED,
        ),
        fault_schedule=schedule,
        **cfg,
    )
    return RuntimeCluster(make_bootstraps(dataset), config)


def runtimes_of(cluster):
    """The in-process runtimes behind a ``sim`` cluster, by worker id."""
    return [handler.__self__ for handler in cluster.transport._handlers]


def aggregate(cluster, results, dataset, codec=None):
    """The driver's side of a round: merge the GRADs, encode the update."""
    codec = codec or driver_codec()
    grads = [
        codec.decompress(r.message) for r in results.values() if r.has_batch
    ]
    keys, values = aggregate_sparse_gradients(grads)
    message = codec.compress(keys, values, dataset.num_features)
    return message, cluster.encode_update(message)


def random_update(dataset, seed):
    """Payload-v2 bytes of a random sparse update over ``dataset``."""
    rng = np.random.default_rng([SEED, seed])
    keys = np.unique(rng.integers(0, dataset.num_features, size=400))
    values = rng.normal(scale=1e-2, size=keys.size)
    message = driver_codec().compress(keys, values, dataset.num_features)
    return serialize_message(message)


def update_frame(round_id, data, lr=LR):
    return pack_frame(
        KIND_UPDATE, DRIVER_SENDER, pack_update_header(round_id, lr) + data
    )


def shared_runtimes(dataset, count):
    """``count`` in-process runtimes built on one shared replica."""
    specs = make_bootstraps(dataset, count)
    replica = Replica.boot(specs[0])
    return [
        WorkerRuntime(spec, spool=False, replica=replica) for spec in specs
    ]


class DecodeCounter:
    """Counts worker-side deserializations, decompressions and
    optimizer steps.  Decompressions are counted inside :meth:`workers`
    only, so the driver's own codec calls are not."""

    def __init__(self, monkeypatch):
        self.deserialize = self.decompress = self.steps = 0
        self._monkeypatch = monkeypatch
        for name in ("deserialize_message", "deserialize_message_chunks"):
            monkeypatch.setattr(
                worker_runtime, name,
                self._counted("deserialize", getattr(worker_runtime, name)),
            )
        monkeypatch.setattr(Adam, "step", self._counted("steps", Adam.step))

    def _counted(self, attr, fn):
        def counted(*args):
            setattr(self, attr, getattr(self, attr) + 1)
            return fn(*args)

        return counted

    @contextlib.contextmanager
    def workers(self):
        """Count the decompressions made inside this block."""
        decompress = self._counted("decompress", SketchMLCompressor.decompress)
        with self._monkeypatch.context() as patch:
            patch.setattr(SketchMLCompressor, "decompress", decompress)
            yield

    def broadcast(self, cluster, *args, **kwargs):
        """``cluster.broadcast`` with worker decompressions counted."""
        with self.workers():
            return cluster.broadcast(*args, **kwargs)

    def totals(self):
        return self.deserialize, self.decompress, self.steps


@pytest.mark.parametrize(
    "wire", [{}, {"entropy_coding": True, "chunk_bytes": 256}],
    ids=["contiguous", "chunked"],
)
def test_one_decode_per_broadcast(dataset, monkeypatch, wire):
    """One deserialize, one decompress and one optimizer step per
    broadcast, however many replicas receive it."""
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


def live_replicas():
    gc.collect()
    return sum(isinstance(o, Replica) for o in gc.get_objects())


def test_sync_round_leaves_one_live_replica(dataset):
    baseline = live_replicas()
    with make_cluster(dataset) as cluster:
        runtimes = runtimes_of(cluster)
        cluster.start_epoch(0)
        for round_id in range(2):
            _, update = aggregate(
                cluster, cluster.step(round_id, LR), dataset
            )
            cluster.broadcast(round_id, LR, update)
            replica = runtimes[0]._replica
            assert all(r._replica is replica for r in runtimes)
            assert (replica.holders, replica.link) == (NUM_WORKERS, None)
            assert live_replicas() == baseline + 1
            del replica


@pytest.mark.parametrize("leave", ["detached", "lost"])
def test_a_leaver_pins_no_replica(dataset, leave):
    """Worker 2 leaves after round 0: detached (an elastic leave), or
    terminated and dropped by the supervisor.  Its runtime drops its
    replica, so however many rounds the other two run, one replica
    stays live; had it kept the round-0 replica, that replica's link
    would pin every later round's."""
    baseline = live_replicas()
    with make_cluster(dataset, policy="drop") as cluster:
        leaver = runtimes_of(cluster)[2]
        for round_id in range(6):
            if round_id == 1 and leave == "detached":
                cluster.detach_worker(2)
            elif round_id == 1:
                cluster.transport.terminate(2)
            cluster.start_epoch(round_id)
            _, update = aggregate(
                cluster, cluster.step(round_id, LR), dataset
            )
            acked = cluster.broadcast(round_id, LR, update)
            assert acked == ([0, 1, 2] if round_id == 0 else [0, 1])
            assert live_replicas() == baseline + 1
        assert leaver._replica is None
        with pytest.raises(FrameError, match="left the membership"):
            leaver.theta


def test_copy_on_write_under_divergence(dataset, monkeypatch):
    """Runtime ``a`` moves two rounds ahead of ``b`` on a shared
    replica.  Neither write reaches ``b``'s theta — the replica ``a``
    made at round 0 is also held by the link ``b`` will follow, so
    round 1 copies it too — and ``b`` then adopts both results without
    decoding or applying."""
    a, b = shared_runtimes(dataset, 2)
    updates = [random_update(dataset, r) for r in range(2)]
    start = b.theta.copy()
    seen = []
    for round_id, data in enumerate(updates):
        assert a.handle_frame(update_frame(round_id, data))
        seen.append(a.theta.copy())
        assert not np.array_equal(seen[-1], start)
        np.testing.assert_array_equal(b.theta, start)
    counts = DecodeCounter(monkeypatch)
    with counts.workers():
        for round_id, data in enumerate(updates):
            assert b.handle_frame(update_frame(round_id, data))
            np.testing.assert_array_equal(b.theta, seen[round_id])
    assert counts.totals() == (0, 0, 0)
    assert b._replica is a._replica and a._replica.holders == 2


def test_spawned_worker_never_forks(dataset):
    """A runtime built the way a spawned worker builds one holds its
    replica alone and updates it in place."""
    spec = make_bootstraps(dataset, 1)[0]
    runtime = WorkerRuntime(spec, spool=True)
    replica, theta = runtime._replica, runtime.theta
    for round_id in range(3):
        data = random_update(dataset, round_id)
        assert runtime.handle_frame(update_frame(round_id, data))
        assert runtime._replica is replica and runtime.theta is theta
        assert (replica.holders, replica.link) == (1, None)


def test_forged_update_that_decodes_changes_only_its_receiver(
    dataset, monkeypatch
):
    """Worker 0 receives a different (well-formed) update for round 0.
    It forks off its own replica; workers 1 and 2 apply the genuine
    update once between them and land where a private replica does."""
    genuine, forged = random_update(dataset, 0), random_update(dataset, 1)
    runtimes = shared_runtimes(dataset, NUM_WORKERS)
    counts = DecodeCounter(monkeypatch)
    with counts.workers():
        for runtime, data in zip(runtimes, (forged, genuine, genuine)):
            assert runtime.handle_frame(update_frame(0, data))
    # The forgery decodes once; worker 1 misses the link it left and
    # decodes the genuine update, which worker 2 adopts.
    assert counts.totals() == (2, 2, 2)
    assert runtimes[1]._replica is runtimes[2]._replica
    assert runtimes[0]._replica is not runtimes[1]._replica
    for data, runtime in ((forged, runtimes[0]), (genuine, runtimes[1])):
        private = WorkerRuntime(make_bootstraps(dataset, 1)[0], spool=False)
        private.handle_frame(update_frame(0, data))
        np.testing.assert_array_equal(runtime.theta, private.theta)


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


def record_rejections(monkeypatch):
    """The worker ids of every ``worker.rejected_frames`` count, in
    order (in-process runtimes only)."""
    rejected = []
    metric = WorkerRuntime._metric

    def recording(runtime, name, value):
        if name == "worker.rejected_frames":
            rejected.extend([runtime.worker_id] * value)
        return metric(runtime, name, value)

    monkeypatch.setattr(WorkerRuntime, "_metric", recording)
    return rejected


def corrupted_round(dataset, schedule=None, counts=None, **cluster):
    """One round whose UPDATE may be corrupted on its way to a worker,
    then the next round's GRADs, which read every replica's theta.
    Returns those GRADs and the cluster's fault and retry counts."""
    with make_cluster(dataset, schedule=schedule, **cluster) as cluster:
        cluster.start_epoch(0)
        _, update = aggregate(cluster, cluster.step(0, LR), dataset)
        acked = (
            counts.broadcast(cluster, 0, LR, update) if counts
            else cluster.broadcast(0, LR, update)
        )
        assert acked == list(range(NUM_WORKERS))
        after = cluster.step(1, LR)
        faults = (
            cluster.transport.stats["corrupts"] if schedule else 0,
            cluster.supervisor.stats["retries"],
        )
    grads = {
        w: (r.local_loss, r.gradient_nnz, r.message_bytes)
        for w, r in after.items()
    }
    return grads, faults


def test_corrupted_delivery_misses_and_leaves_the_link(dataset, monkeypatch):
    """Worker 1's copy of the round-0 UPDATE (its send index 2, after
    EPOCH and STEP) is corrupted.  It misses the link, fails to decode
    and is dropped unanswered, while the fan-out goes on to worker 2;
    the supervisor's retry then hits the link worker 0 left, so the
    update is applied once and every replica lands where the
    fault-free run does."""
    clean, faults = corrupted_round(dataset)
    assert faults == (0, 0)
    counts = DecodeCounter(monkeypatch)
    rejected = record_rejections(monkeypatch)
    schedule = FaultSchedule().add("corrupt", "send", 1, 2)
    faulty, faults = corrupted_round(dataset, schedule, counts)
    assert faults == (1, 1)
    assert rejected == [1]
    # One good decode (worker 0) and one failed (worker 1); worker 2
    # and worker 1's retry adopt worker 0's result.
    assert (counts.deserialize, counts.steps) == (2, 1)
    assert faulty == clean


def test_corrupted_delivery_leaves_a_spawned_worker_alive(dataset):
    """On ``mp`` the same corruption (send index 3 there: INIT comes
    first) is dropped by the worker process, which stays up and applies
    the retried copy."""
    clean, _ = corrupted_round(dataset, backend="mp", timeout=2.0)
    schedule = FaultSchedule().add("corrupt", "send", 1, 3)
    faulty, faults = corrupted_round(
        dataset, schedule, backend="mp", timeout=2.0
    )
    assert faults == (1, 1)
    assert faulty == clean


def test_optimizer_errors_still_propagate(dataset, monkeypatch):
    """Only bytes that do not parse or decode are dropped; an error
    from applying a decoded update is the worker's own and raises."""

    def failing_step(optimizer, theta, keys, values):
        raise ValueError("optimizer failure")

    rejected = record_rejections(monkeypatch)
    with make_cluster(dataset) as cluster:
        cluster.start_epoch(0)
        _, update = aggregate(cluster, cluster.step(0, LR), dataset)
        monkeypatch.setattr(Adam, "step", failing_step)
        with pytest.raises(ValueError, match="optimizer failure"):
            cluster.broadcast(0, LR, update)
    assert rejected == []


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
    """Every worker the forgery reaches drops it unanswered.  The
    fan-out reaches all three; worker 0's retries fail alike and end in
    the supervisor's structured error; the genuine update then applies
    everywhere with one decode."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize.enabled()
    counts = DecodeCounter(monkeypatch)
    rejected = record_rejections(monkeypatch)
    with make_cluster(dataset) as cluster:
        update, forged = forged_update(cluster, dataset)
        with pytest.raises(RetryExhaustedError) as error:
            counts.broadcast(cluster, 0, LR, forged)
        assert (error.value.worker_id, error.value.phase) == (0, "update")
        attempts = error.value.attempts
        assert attempts == 4
        # Each delivery decoded the forgery itself: a failed decode
        # leaves no link, so nothing was there to adopt.
        decodes = NUM_WORKERS + attempts - 1
        assert counts.totals() == (decodes, decodes, 0)
        assert rejected == list(range(NUM_WORKERS)) + [0] * (attempts - 1)
        acked = counts.broadcast(cluster, 0, LR, update)
        assert acked == list(range(NUM_WORKERS))
        assert counts.totals() == (decodes + 1, decodes + 1, 1)


def _fleet_theta(split, backend, config, schedule=None):
    train, test = split
    trainer = FleetTrainer(
        model=make_model("lr", train.num_features),
        optimizer=Adam(learning_rate=0.01),
        compressor_factory=lambda: SketchMLCompressor(config),
        network=infinite_bandwidth(),
        schedule=schedule or MembershipSchedule(num_workers=NUM_WORKERS),
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


def test_elastic_join_bit_identical_to_mp():
    """Worker 2 joins before round 1: on ``sim`` its SYNC gives it a
    private replica, which it decodes and applies for itself."""
    split = train_test_split(kdd10_like(seed=SEED, scale=0.02), seed=SEED)
    schedule = MembershipSchedule(
        num_workers=NUM_WORKERS, start=(0, 1),
        events=(MembershipEvent(round=1, joins=(2,)),),
    )
    config = SketchMLConfig.full(seed=SEED)
    sim = _fleet_theta(split, "sim", config, schedule)
    np.testing.assert_array_equal(
        _fleet_theta(split, "mp", config, schedule), sim
    )


class _Booted(Exception):
    """Stops a trainer once its cluster has its bootstraps."""


@pytest.fixture
def recorded_bootstraps(monkeypatch):
    """The optimizers of every bootstrap list a trainer hands its
    cluster, as ``(unprepared, pickled size)`` when handed; a non-``sim``
    cluster stops the run before any worker is spawned."""
    seen = []

    class Recording(RuntimeCluster):
        def __init__(self, bootstraps, config=None):
            seen.append([
                (spec.optimizer._m is None, len(pickle.dumps(spec.optimizer)))
                for spec in bootstraps
            ])
            if config.backend != "sim":
                raise _Booted()
            super().__init__(bootstraps, config)

    monkeypatch.setattr(runtime_pkg, "RuntimeCluster", Recording)
    return seen


def _assert_unprepared(optimizers):
    assert len(optimizers) == 2
    for unprepared, size in optimizers:
        assert unprepared and size < 1024


def test_bootstraps_carry_an_unprepared_optimizer(recorded_bootstraps):
    """For a D = 400k model: the fleet trainer (whose optimizer is
    prepared before the bootstraps are built), the same trainer's
    second ``train()``, and the distributed trainer before and after
    its optimizer holds state."""
    train = kdd12_like(seed=SEED, scale=0.002)
    assert train.num_features == 400_000
    model = make_model("lr", train.num_features)
    codec = lambda: SketchMLCompressor(SketchMLConfig.full(seed=SEED))
    fleet = FleetTrainer(
        model=model, optimizer=Adam(learning_rate=0.01),
        compressor_factory=codec, network=infinite_bandwidth(),
        schedule=MembershipSchedule(num_workers=2),
        config=FleetConfig(epochs=1, seed=SEED, evaluate_test=False),
    )
    for _ in range(2):
        fleet.train(train)
        _assert_unprepared(recorded_bootstraps.pop())
    assert fleet.optimizer._m.size == train.num_features
    distributed = DistributedTrainer(
        model=model, optimizer=Adam(learning_rate=0.01),
        compressor_factory=codec, network=infinite_bandwidth(),
        config=TrainerConfig(num_workers=2, epochs=1, backend="mp"),
    )
    for _ in range(2):
        with pytest.raises(_Booted):
            distributed.train(train)
        _assert_unprepared(recorded_bootstraps.pop())
        distributed.optimizer.prepare(train.num_features)
