"""Tests for the wire-format SketchML compressor."""

import numpy as np
import pytest

from repro.compression import CompressedGradient, make_compressor
from repro.core import (
    SketchMLCompressor,
    SketchMLConfig,
    WireSketchMLCompressor,
)
from repro.distributed import DistributedTrainer, TrainerConfig, cluster1_like
from repro.models import LogisticRegression
from repro.optim import Adam


def make_gradient(nnz=4_000, dimension=100_000, seed=0):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
    values = rng.laplace(scale=0.01, size=nnz)
    values[values == 0.0] = 1e-6
    return keys, values, dimension


class TestWireCompressor:
    def test_registered(self):
        assert isinstance(
            make_compressor("sketchml-wire"), WireSketchMLCompressor
        )

    def test_payload_is_bytes_and_sized_honestly(self):
        keys, values, dim = make_gradient(seed=1)
        message = WireSketchMLCompressor().compress(keys, values, dim)
        assert isinstance(message.payload, bytes)
        assert message.num_bytes == len(message.payload)

    def test_roundtrip_matches_in_memory_pipeline(self):
        keys, values, dim = make_gradient(seed=2)
        config = SketchMLConfig.full(seed=5)
        in_memory = SketchMLCompressor(config)
        on_wire = WireSketchMLCompressor(config)
        mem_keys, mem_values, _ = in_memory.roundtrip(keys, values, dim)
        wire_keys, wire_values, _ = on_wire.roundtrip(keys, values, dim)
        np.testing.assert_array_equal(wire_keys, mem_keys)
        np.testing.assert_allclose(wire_values, mem_values)

    def test_accounting_model_tracks_reality(self):
        """The in-memory num_bytes must approximate true wire length.

        At payload v2 the model errs both ways: it prices a sketch cell
        at a whole byte (the wire codes it in ~0.4) and leaves out the
        headers and length prefixes; at 10k nnz the wire is ~0.89x.
        """
        keys, values, dim = make_gradient(nnz=10_000, seed=3)
        config = SketchMLConfig.full()
        modelled = SketchMLCompressor(config).compress(keys, values, dim)
        actual = WireSketchMLCompressor(config).compress(keys, values, dim)
        assert actual.num_bytes < modelled.num_bytes * 1.05
        assert actual.num_bytes > modelled.num_bytes * 0.8

    def test_rejects_foreign_payload(self):
        comp = WireSketchMLCompressor()
        fake = CompressedGradient(payload=(1, 2), num_bytes=2, dimension=5, nnz=0)
        with pytest.raises(TypeError):
            comp.decompress(fake)

    def test_trains_end_to_end(self, tiny_split):
        """The whole simulated cluster can run on genuine bytes."""
        train, test = tiny_split
        trainer = DistributedTrainer(
            model=LogisticRegression(train.num_features, reg_lambda=0.01),
            optimizer=Adam(learning_rate=0.01),
            compressor_factory=WireSketchMLCompressor,
            network=cluster1_like(),
            config=TrainerConfig(num_workers=3, epochs=2, seed=0),
        )
        history = trainer.train(train, test)
        assert history.test_losses[-1] < history.test_losses[0]
        assert history.total_bytes_sent > 0

    def test_ablation_configs_work_on_wire(self):
        keys, values, dim = make_gradient(nnz=500, seed=4)
        for config in (
            SketchMLConfig.adam(),
            SketchMLConfig.keys_only(),
            SketchMLConfig.keys_and_quantization(),
            SketchMLConfig.full(compensate_decay=True),
        ):
            comp = WireSketchMLCompressor(config)
            out_keys, out_values, _ = comp.roundtrip(keys, values, dim)
            np.testing.assert_array_equal(out_keys, keys)
            assert np.all(np.sign(out_values) == np.sign(values))
