"""Elastic + stale training over real backends.

The fleet subsystem's acceptance bar mirrors the runtime one: a
fixed-seed run with workers joining and leaving mid-training — and
optionally a bounded-staleness gather — must produce *identical*
model parameters whether the control frames move through the
simulated loop or through real spawned worker processes.
"""

import collections

import numpy as np
import pytest

from repro.core import SketchMLCompressor, SketchMLConfig
from repro.data import kdd10_like, train_test_split
from repro.distributed.network import infinite_bandwidth
from repro.fleet import (
    FleetConfig,
    FleetTrainer,
    MembershipEvent,
    MembershipSchedule,
)
from repro.models import make_model
from repro.optim import SGD
from repro.runtime import RuntimeConfig, cluster
from repro.runtime.worker_runtime import WorkerRuntime

SEED = 7
EPOCHS = 2

#: Universe of 4, starting with 3 active; worker 3 joins before round 2
#: and worker 1 leaves before round 4 — both land inside the ~8 global
#: rounds a 2-epoch run produces at batch_fraction 0.25.
SCHEDULE = MembershipSchedule(
    num_workers=4,
    start=(0, 1, 2),
    events=(
        MembershipEvent(round=2, joins=(3,)),
        MembershipEvent(round=4, leaves=(1,)),
    ),
)


@pytest.fixture(scope="module")
def split():
    return train_test_split(kdd10_like(seed=SEED, scale=0.02), seed=SEED)


def run_fleet(split, backend, staleness=None, schedule=SCHEDULE, runtime=None):
    train, test = split
    trainer = FleetTrainer(
        model=make_model("lr", train.num_features),
        optimizer=SGD(learning_rate=0.1),
        compressor_factory=lambda: SketchMLCompressor(
            SketchMLConfig.full(seed=SEED)
        ),
        network=infinite_bandwidth(),
        schedule=schedule,
        config=FleetConfig(
            epochs=EPOCHS,
            batch_fraction=0.25,
            seed=SEED,
            backend=backend,
            staleness=staleness,
        ),
        runtime=runtime,
    )
    history = trainer.train(train, test)
    return history, trainer


def wire_tap(monkeypatch):
    """Record the driver's update writes and each sim worker's UPDATEs."""
    written, received = [], collections.defaultdict(list)
    serialize, apply = cluster.serialize_message, WorkerRuntime._apply_update

    def tap_serialize(message, **kwargs):
        written.append((kwargs, serialize(message, **kwargs)))
        return written[-1][1]

    def tap_apply(self, round_id, lr, data, span_id=None):
        pieces = data if isinstance(data, list) else [data]
        received[self.worker_id].append(b"".join(pieces))
        return apply(self, round_id, lr, data, span_id)

    monkeypatch.setattr(cluster, "serialize_message", tap_serialize)
    monkeypatch.setattr(WorkerRuntime, "_apply_update", tap_apply)
    return written, received


@pytest.fixture(scope="module")
def sim_elastic(split):
    return run_fleet(split, "sim")


@pytest.fixture(scope="module")
def sim_stale(split):
    return run_fleet(split, "sim", staleness=2)


class TestElasticEquivalence:
    def test_mp_matches_sim_bit_identically(self, split, sim_elastic):
        sim_history, sim_trainer = sim_elastic
        history, trainer = run_fleet(split, "mp")
        # Same schedule + seed ⇒ same control frames, same updates,
        # same parameters — exactly (no tolerance).
        np.testing.assert_array_equal(trainer.theta, sim_trainer.theta)
        assert history.num_epochs == sim_history.num_epochs
        for got, ref in zip(history.epochs, sim_history.epochs):
            assert got.train_loss == ref.train_loss
            assert got.test_loss == ref.test_loss

    def test_sim_reproduces_itself(self, split, sim_elastic):
        _, sim_trainer = sim_elastic
        _, trainer = run_fleet(split, "sim")
        np.testing.assert_array_equal(trainer.theta, sim_trainer.theta)

    def test_membership_log_follows_schedule(self, sim_elastic):
        _, trainer = sim_elastic
        log = dict(trainer.membership_log)
        assert log[0] == (0, 1, 2)
        assert log[2] == (0, 1, 2, 3)
        assert log[4] == (0, 2, 3)


class TestRoundWeights:
    def test_weights_sum_to_one_every_round(self, sim_elastic):
        _, trainer = sim_elastic
        assert trainer.round_weights
        for weights in trainer.round_weights:
            assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_weights_shift_with_membership(self, sim_elastic):
        # A 3-worker round and a 4-worker round cannot weight the same
        # contributors identically — resharding changes the fractions.
        _, trainer = sim_elastic
        sizes = {len(w) for w in trainer.round_weights}
        assert {3, 4} <= sizes


class TestStaleEquivalence:
    def test_stale_mp_matches_sim_bit_identically(self, split, sim_stale):
        # The virtual clock, the SSP gate, and the update journal are
        # all driver-side seeded state, so the bounded-async regime is
        # just as reproducible as the synchronous one.
        _, sim_trainer = sim_stale
        _, trainer = run_fleet(split, "mp", staleness=2)
        np.testing.assert_array_equal(trainer.theta, sim_trainer.theta)

    def test_stale_zero_static_matches_across_backends(self, split, monkeypatch):
        # N = 0 over a static membership: synchronous semantics with
        # per-worker pacing, still bit-identical sim vs mp.
        static = MembershipSchedule(num_workers=3)
        _, mp_trainer = run_fleet(split, "mp", staleness=0, schedule=static)
        written, received = wire_tap(monkeypatch)  # taps the sim run only
        _, sim_trainer = run_fleet(split, "sim", staleness=0, schedule=static)
        np.testing.assert_array_equal(mp_trainer.theta, sim_trainer.theta)
        # The update log is written once per update, at payload v2, and
        # replayed to every worker unchanged.
        assert written and {data[4] for _, data in written} == {2}
        assert all(received[w] == [d for _, d in written] for w in range(3))


class TestOneSerializePerBroadcast:
    def test_bytes_written_are_the_bytes_sent(self, split, monkeypatch):
        written, received = wire_tap(monkeypatch)
        _, trainer = run_fleet(
            split, "sim", schedule=MembershipSchedule(num_workers=3),
            runtime=RuntimeConfig(entropy_coding=True),
        )
        # One entropy-coded v2 write per aggregated round, and every
        # worker applies exactly the bytes written (and metered).
        assert len(written) == len(trainer.round_weights) > 0
        assert all(kw == {"entropy": True} for kw, _ in written)
        assert {data[4] for _, data in written} == {2}
        assert all(received[w] == [d for _, d in written] for w in range(3))


class TestOneRoundEngine:
    """``DistributedTrainer`` on a real backend and a static-membership
    ``FleetTrainer`` run the same synchronous round loop, so they must
    agree exactly.  900 training rows split evenly over 2 or 4 workers,
    so the fleet's shard weights (1/2, 1/4) are exact in floating point
    and its weighted sum equals the classic per-key mean bit for bit."""

    ENGINE_SEED = 3

    @pytest.fixture(scope="class")
    def even_split(self):
        return train_test_split(
            kdd10_like(seed=self.ENGINE_SEED, scale=0.1),
            seed=self.ENGINE_SEED,
        )

    def _factory(self):
        return SketchMLCompressor(SketchMLConfig.full(seed=self.ENGINE_SEED))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_distributed_mp_matches_fleet_sim(self, even_split, workers):
        from repro.distributed import DistributedTrainer, TrainerConfig

        train, test = even_split
        assert train.num_rows == 900
        distributed = DistributedTrainer(
            model=make_model("lr", train.num_features),
            optimizer=SGD(learning_rate=0.1),
            compressor_factory=self._factory,
            network=infinite_bandwidth(),
            config=TrainerConfig(
                num_workers=workers, epochs=EPOCHS,
                seed=self.ENGINE_SEED, backend="mp",
            ),
        )
        fleet = FleetTrainer(
            model=make_model("lr", train.num_features),
            optimizer=SGD(learning_rate=0.1),
            compressor_factory=self._factory,
            network=infinite_bandwidth(),
            schedule=MembershipSchedule(num_workers=workers),
            config=FleetConfig(
                epochs=EPOCHS, seed=self.ENGINE_SEED, backend="sim",
            ),
        )
        got = distributed.train(train, test)
        ref = fleet.train(train, test)
        np.testing.assert_array_equal(distributed.theta, fleet.theta)
        assert [(e.bytes_sent, e.num_messages) for e in got.epochs] == [
            (e.bytes_sent, e.num_messages) for e in ref.epochs
        ]


class TestWireFormatRequired:
    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_compressor_without_wire_format_fails_before_boot(
        self, split, backend
    ):
        # Top-k messages have no wire format: the fleet must refuse the
        # compressor up front with the same named error as
        # DistributedTrainer, before any worker process is spawned.
        import multiprocessing

        from repro.compression import TopKCompressor

        train, test = split
        trainer = FleetTrainer(
            model=make_model("lr", train.num_features),
            optimizer=SGD(learning_rate=0.1),
            compressor_factory=TopKCompressor,
            network=infinite_bandwidth(),
            schedule=MembershipSchedule(num_workers=2),
            config=FleetConfig(epochs=1, seed=SEED, backend=backend),
        )
        with pytest.raises(ValueError, match="cannot be serialized"):
            trainer.train(train, test)
        assert multiprocessing.active_children() == []


class TestConfigValidation:
    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError, match="staleness"):
            FleetConfig(staleness=-1)

    def test_bad_batch_fraction_rejected(self):
        with pytest.raises(ValueError, match="batch_fraction"):
            FleetConfig(batch_fraction=0.0)
