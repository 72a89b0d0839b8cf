"""Tests for checkpointing."""

import numpy as np
import pytest

from repro.distributed import load_checkpoint, save_checkpoint
from repro.optim import Adam, AdaGrad, Momentum, SGD


class TestCheckpoint:
    def test_theta_roundtrip(self, tmp_path):
        theta = np.random.default_rng(0).normal(size=1_000)
        path = tmp_path / "model.npz"
        save_checkpoint(path, theta, epoch=7)
        loaded, epoch = load_checkpoint(path)
        np.testing.assert_array_equal(loaded, theta)
        assert epoch == 7

    @pytest.mark.parametrize(
        "optimizer",
        [SGD(0.1), Momentum(0.1), AdaGrad(0.1), Adam(0.05)],
        ids=lambda o: o.name,
    )
    def test_optimizer_state_roundtrip(self, tmp_path, optimizer):
        rng = np.random.default_rng(1)
        theta = np.zeros(100)
        optimizer.prepare(100)
        for _ in range(5):
            keys = np.sort(rng.choice(100, size=20, replace=False))
            optimizer.step(theta, keys, rng.normal(size=20))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, theta, optimizer, epoch=5)

        fresh = type(optimizer)(learning_rate=0.987)
        restored_theta, epoch = load_checkpoint(path, fresh)
        np.testing.assert_array_equal(restored_theta, theta)
        assert fresh.learning_rate == optimizer.learning_rate

        # Continued training must be bit-identical to the original.
        keys = np.arange(10)
        grads = rng.normal(size=10)
        optimizer.step(theta, keys, grads)
        fresh.step(restored_theta, keys, grads)
        np.testing.assert_array_equal(restored_theta, theta)

    def test_optimizer_type_mismatch(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        adam = Adam(0.01)
        adam.prepare(10)
        save_checkpoint(path, np.zeros(10), adam)
        with pytest.raises(ValueError, match="state"):
            load_checkpoint(path, SGD(0.1))

    def test_missing_optimizer_state(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, np.zeros(10))
        with pytest.raises(ValueError, match="no optimizer state"):
            load_checkpoint(path, Adam(0.01))


class TestAtomicSave:
    def test_crash_mid_write_preserves_old_checkpoint(
        self, tmp_path, monkeypatch
    ):
        # A crash while the archive is being written (the exact
        # interruption a checkpoint exists to survive) must leave the
        # previous checkpoint readable and no temp litter behind.
        path = tmp_path / "model.npz"
        old_theta = np.full(64, 2.5)
        save_checkpoint(path, old_theta, epoch=3)

        def crashing_savez(handle, **arrays):
            handle.write(b"half-written garbage")
            raise RuntimeError("simulated crash mid-write")

        monkeypatch.setattr(np, "savez_compressed", crashing_savez)
        with pytest.raises(RuntimeError, match="simulated crash"):
            save_checkpoint(path, np.zeros(64), epoch=4)
        monkeypatch.undo()

        loaded, epoch = load_checkpoint(path)
        np.testing.assert_array_equal(loaded, old_theta)
        assert epoch == 3
        leftovers = [p for p in tmp_path.iterdir() if ".tmp-" in p.name]
        assert leftovers == []

    def test_crash_with_no_prior_checkpoint_leaves_nothing(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "fresh.npz"

        def crashing_savez(handle, **arrays):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", crashing_savez)
        with pytest.raises(OSError):
            save_checkpoint(path, np.zeros(8))
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    def test_suffixless_path_gains_npz_suffix_atomically(self, tmp_path):
        # np.savez_compressed appends ".npz" to suffix-less paths; the
        # atomic writer must target the same final name.
        path = tmp_path / "model"
        save_checkpoint(path, np.arange(5.0), epoch=1)
        assert (tmp_path / "model.npz").exists()
        loaded, _ = load_checkpoint(tmp_path / "model.npz")
        np.testing.assert_array_equal(loaded, np.arange(5.0))

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, np.zeros(16), epoch=1)
        save_checkpoint(path, np.ones(16), epoch=2)
        loaded, epoch = load_checkpoint(path)
        np.testing.assert_array_equal(loaded, np.ones(16))
        assert epoch == 2
        leftovers = [p for p in tmp_path.iterdir() if ".tmp-" in p.name]
        assert leftovers == []
