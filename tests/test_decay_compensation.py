"""Tests for codec-level decay compensation (§3.3's vanishing-gradient fix)."""

import numpy as np
import pytest

from repro.core import (
    SketchMLCompressor,
    SketchMLConfig,
    deserialize_message,
    serialize_message,
)


def make_gradient(nnz=4_000, dimension=100_000, seed=0):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
    values = rng.laplace(scale=0.01, size=nnz)
    values[values == 0.0] = 1e-6
    return keys, values, dimension


#: Aggressive sketch (few bins -> heavy collisions -> strong decay).
LOSSY = dict(minmax_cols_factor=0.02, num_groups=2)


class TestDecayCompensation:
    def test_restores_mean_magnitude(self):
        keys, values, dim = make_gradient(seed=1)
        plain = SketchMLCompressor(SketchMLConfig.full(**LOSSY))
        comp = SketchMLCompressor(
            SketchMLConfig.full(compensate_decay=True, **LOSSY)
        )
        _, plain_decoded, _ = plain.roundtrip(keys, values, dim)
        _, comp_decoded, _ = comp.roundtrip(keys, values, dim)
        true_mean = np.abs(values).mean()
        assert np.abs(plain_decoded).mean() < 0.9 * true_mean  # decayed
        assert np.abs(comp_decoded).mean() == pytest.approx(true_mean, rel=0.02)

    def test_signs_still_preserved(self):
        keys, values, dim = make_gradient(seed=2)
        comp = SketchMLCompressor(
            SketchMLConfig.full(compensate_decay=True, **LOSSY)
        )
        _, decoded, _ = comp.roundtrip(keys, values, dim)
        assert np.all(np.sign(decoded) == np.sign(values))

    def test_scale_is_bounded(self):
        keys, values, dim = make_gradient(seed=3)
        comp = SketchMLCompressor(
            SketchMLConfig.full(compensate_decay=True, **LOSSY)
        )
        message = comp.compress(keys, values, dim)
        assert 1.0 <= message.payload.decay_scale <= 8.0

    def test_costs_eight_bytes(self):
        keys, values, dim = make_gradient(seed=4)
        plain_msg = SketchMLCompressor(SketchMLConfig.full(**LOSSY)).compress(
            keys, values, dim
        )
        comp_msg = SketchMLCompressor(
            SketchMLConfig.full(compensate_decay=True, **LOSSY)
        ).compress(keys, values, dim)
        assert comp_msg.num_bytes == plain_msg.num_bytes + 8
        # The f64 scale rides the message header.
        assert comp_msg.breakdown["header"] == plain_msg.breakdown["header"] + 8

    def test_accurate_sketch_needs_no_correction(self):
        """With a big sketch the decay is negligible and the scale ≈ 1."""
        keys, values, dim = make_gradient(seed=5)
        comp = SketchMLCompressor(
            SketchMLConfig.full(compensate_decay=True, minmax_cols_factor=2.0)
        )
        message = comp.compress(keys, values, dim)
        assert message.payload.decay_scale == pytest.approx(1.0, abs=0.1)

    def test_survives_wire_roundtrip(self):
        keys, values, dim = make_gradient(seed=6)
        comp = SketchMLCompressor(
            SketchMLConfig.full(compensate_decay=True, **LOSSY)
        )
        message = comp.compress(keys, values, dim)
        direct = comp.decompress(message)
        rebuilt = deserialize_message(serialize_message(message))
        via_wire = comp.decompress(rebuilt)
        np.testing.assert_array_equal(direct[0], via_wire[0])
        np.testing.assert_allclose(direct[1], via_wire[1])

    def test_helps_plain_sgd_convergence(self, tiny_split):
        """The point of the feature: without Adam's per-dimension
        rescaling, compensation recovers convergence lost to decay."""
        from repro.distributed import (
            DistributedTrainer,
            TrainerConfig,
            cluster1_like,
        )
        from repro.models import LogisticRegression
        from repro.optim import SGD

        train, test = tiny_split
        losses = {}
        for name, flag in (("plain", False), ("compensated", True)):
            config = SketchMLConfig.full(compensate_decay=flag, **LOSSY)
            trainer = DistributedTrainer(
                model=LogisticRegression(train.num_features, reg_lambda=0.01),
                optimizer=SGD(learning_rate=0.5),
                compressor_factory=lambda c=config: SketchMLCompressor(c),
                network=cluster1_like(),
                config=TrainerConfig(num_workers=4, epochs=4, seed=0),
            )
            losses[name] = trainer.train(train, test).test_losses[-1]
        assert losses["compensated"] < losses["plain"]
