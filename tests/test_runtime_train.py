"""End-to-end training over real backends.

The acceptance bar for the runtime subsystem: a fixed-seed logistic
regression run must produce *identical* model parameters whether the
gradients move through the simulated loop or through real spawned
worker processes — the wire bytes are the same, so the math must be.
"""

import numpy as np
import pytest

from repro.compression import IdentityCompressor
from repro.core import SketchMLCompressor, SketchMLConfig
from repro.data import kdd10_like, train_test_split
from repro.distributed import DistributedTrainer, TrainerConfig
from repro.distributed.network import infinite_bandwidth
from repro.models import make_model
from repro.optim import SGD
from repro.runtime import (
    TRANSPORT_BACKENDS,
    FaultConfig,
    RuntimeConfig,
    SupervisionConfig,
    make_transport,
)

SEED = 7
NUM_WORKERS = 3
EPOCHS = 2


@pytest.fixture(scope="module")
def split():
    return train_test_split(kdd10_like(seed=SEED, scale=0.02), seed=SEED)


def make_trainer(split, backend, runtime=None, compressor_factory=None):
    train, _ = split
    model = make_model("lr", train.num_features)
    if compressor_factory is None:
        compressor_factory = lambda: SketchMLCompressor(
            SketchMLConfig.full(seed=SEED)
        )
    return DistributedTrainer(
        model=model,
        optimizer=SGD(learning_rate=0.1),
        compressor_factory=compressor_factory,
        network=infinite_bandwidth(),
        config=TrainerConfig(
            num_workers=NUM_WORKERS,
            batch_fraction=0.25,
            epochs=EPOCHS,
            seed=SEED,
            backend=backend,
        ),
        runtime=runtime,
    )


def run_training(split, backend, runtime=None):
    trainer = make_trainer(split, backend, runtime=runtime)
    history = trainer.train(*split)
    return history, trainer.theta


@pytest.fixture(scope="module")
def sim_run(split):
    return run_training(split, "sim")


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ["mp", "aio"])
    def test_real_backend_matches_sim_bit_identically(
        self, split, sim_run, backend
    ):
        sim_history, sim_theta = sim_run
        history, theta = run_training(split, backend)
        # Same updates ⇒ same parameters, exactly (no tolerance).
        np.testing.assert_array_equal(theta, sim_theta)
        assert history.num_epochs == sim_history.num_epochs
        for got, ref in zip(history.epochs, sim_history.epochs):
            assert got.train_loss == ref.train_loss
            assert got.test_loss == ref.test_loss
            assert got.num_messages == ref.num_messages
            assert got.dropped_workers == {}

    def test_sim_backend_reproduces_itself(self, split, sim_run):
        # The legacy loop is untouched by the runtime plumbing and
        # stays deterministic.
        _, sim_theta = sim_run
        _, theta = run_training(split, "sim")
        np.testing.assert_array_equal(theta, sim_theta)


class TestFaultyTraining:
    def test_training_converges_identically_under_faults(self, split, sim_run):
        # Seeded drop+corrupt faults on a real backend: retries absorb
        # every fault, so the final model still matches sim exactly.
        _, sim_theta = sim_run
        runtime = RuntimeConfig(
            supervision=SupervisionConfig(
                message_timeout=5.0,
                max_retries=5,
                backoff_base=0.01,
                backoff_jitter=0.0,
                seed=SEED,
            ),
            faults=FaultConfig(seed=SEED, drop_rate=0.05, corrupt_rate=0.05),
        )
        _, theta = run_training(split, "mp", runtime=runtime)
        np.testing.assert_array_equal(theta, sim_theta)

    def test_wire_bytes_are_real_on_mp(self, split):
        history, _ = run_training(split, "mp")
        for record in history.epochs:
            # Real backends report actual serialized frame payloads.
            assert record.bytes_sent > 0
            assert record.num_messages > 0


class TestBackendValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            TrainerConfig(backend="carrier-pigeon")

    def test_trainer_backend_literal_mirrors_runtime(self):
        from repro.distributed.trainer import _BACKENDS

        assert _BACKENDS == TRANSPORT_BACKENDS == ("sim", "mp", "aio")

    def test_removed_tcp_backend_is_rejected(self):
        # ``aio`` is the one socket backend; ``tcp`` names no transport.
        from repro.cli import main
        from repro.fleet import FleetConfig

        for build in (
            lambda: RuntimeConfig(backend="tcp"),
            lambda: TrainerConfig(backend="tcp"),
            lambda: FleetConfig(backend="tcp"),
            lambda: make_transport("tcp", 1),
        ):
            with pytest.raises(ValueError, match="unknown backend 'tcp'.*aio"):
                build()
        with pytest.raises(SystemExit) as exc:
            main(["train", "--backend", "tcp"])
        assert exc.value.code == 2

    def test_wire_incapable_compressor_fails_before_spawning(self, split):
        # IdentityCompressor has no wire format; a real backend must
        # refuse it up front with a named error, not die in a child.
        trainer = make_trainer(
            split, "mp", compressor_factory=IdentityCompressor
        )
        with pytest.raises(ValueError, match="cannot be serialized"):
            trainer.train(*split)
