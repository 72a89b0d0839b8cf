"""Tests for worker, driver, and the distributed trainer."""

import numpy as np
import pytest

from repro.compression import IdentityCompressor, ZipMLCompressor
from repro.core import SketchMLCompressor, SketchMLConfig
from repro.distributed import (
    DistributedTrainer,
    Driver,
    TrainerConfig,
    Worker,
    aggregate_sparse_gradients,
    cluster1_like,
    infinite_bandwidth,
)
from repro.models import LogisticRegression, make_model
from repro.optim import Adam


class TestAggregation:
    def test_disjoint_keys_divided_by_worker_count(self):
        grads = [
            (np.asarray([1, 3]), np.asarray([2.0, 4.0])),
            (np.asarray([2]), np.asarray([6.0])),
        ]
        keys, values = aggregate_sparse_gradients(grads)
        assert keys.tolist() == [1, 2, 3]
        np.testing.assert_allclose(values, [1.0, 3.0, 2.0])

    def test_overlapping_keys_summed(self):
        grads = [
            (np.asarray([5]), np.asarray([1.0])),
            (np.asarray([5]), np.asarray([3.0])),
        ]
        keys, values = aggregate_sparse_gradients(grads)
        assert keys.tolist() == [5]
        np.testing.assert_allclose(values, [2.0])

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            aggregate_sparse_gradients([])
        keys, values = aggregate_sparse_gradients(
            [(np.asarray([], dtype=np.int64), np.asarray([]))]
        )
        assert keys.size == 0

    def test_output_sorted(self):
        grads = [
            (np.asarray([10, 20]), np.asarray([1.0, 1.0])),
            (np.asarray([5, 15]), np.asarray([1.0, 1.0])),
        ]
        keys, _ = aggregate_sparse_gradients(grads)
        assert np.all(np.diff(keys) > 0)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_identical_to_add_at_reference(self, weighted):
        rng = np.random.default_rng(31)
        grads = []
        for n in (0, 1, 400, 2_000, 2_000):
            keys = np.unique(rng.integers(0, 5_000, n))
            values = rng.laplace(size=keys.size) * 10.0 ** rng.integers(-6, 7, keys.size)
            grads.append((keys, values))
        weights = rng.dirichlet(np.ones(len(grads))).tolist() if weighted else None
        all_keys = np.concatenate([k for k, _ in grads])
        if weights is None:
            all_values = np.concatenate([v for _, v in grads])
        else:
            all_values = np.concatenate([v * w for (_, v), w in zip(grads, weights)])
        ref_keys, inverse = np.unique(all_keys, return_inverse=True)
        ref_values = np.zeros(ref_keys.size)
        np.add.at(ref_values, inverse, all_values)
        if weights is None:
            ref_values /= len(grads)
        keys, values = aggregate_sparse_gradients(grads, weights)
        np.testing.assert_array_equal(keys, ref_keys)
        np.testing.assert_array_equal(values.view(np.uint64), ref_values.view(np.uint64))


class TestWorker(object):
    def test_batches_cover_partition(self, tiny_split):
        train, _ = tiny_split
        worker = Worker(
            worker_id=0,
            dataset=train,
            model=LogisticRegression(train.num_features),
            compressor=IdentityCompressor(),
            batch_size=100,
            seed=0,
        )
        worker.start_epoch()
        seen = []
        while True:
            batch = worker.next_batch()
            if batch is None:
                break
            seen.append(batch)
        all_rows = np.concatenate(seen)
        assert sorted(all_rows.tolist()) == list(range(train.num_rows))
        assert worker.batches_per_epoch == len(seen)

    def test_compute_step_returns_message(self, tiny_split):
        train, _ = tiny_split
        model = LogisticRegression(train.num_features)
        worker = Worker(0, train, model, IdentityCompressor(), batch_size=50, seed=0)
        worker.start_epoch()
        rows = worker.next_batch()
        result = worker.compute_step(rows, model.init_theta())
        assert result.message.num_bytes > 0
        assert result.gradient_nnz > 0
        assert result.compute_seconds >= 0
        assert np.isfinite(result.local_loss)

    def test_invalid_batch_size(self, tiny_split):
        train, _ = tiny_split
        with pytest.raises(ValueError):
            Worker(0, train, LogisticRegression(train.num_features),
                   IdentityCompressor(), batch_size=0)


class TestDriver:
    def test_aggregate_roundtrip(self, tiny_split):
        train, _ = tiny_split
        model = LogisticRegression(train.num_features)
        theta = model.init_theta()
        compressor = IdentityCompressor()
        messages = []
        for start in (0, 200):
            rows = np.arange(start, start + 100)
            keys, values, _ = model.batch_gradient(train, rows, theta)
            messages.append(compressor.compress(keys, values, model.num_parameters))
        driver = Driver(IdentityCompressor(), model.num_parameters)
        result = driver.aggregate(messages)
        assert result.keys.size > 0
        assert result.broadcast_message.num_bytes > 0
        assert result.decode_seconds >= 0

    def test_lossy_broadcast_is_what_replicas_apply(self, tiny_split):
        """Driver must apply its own decompressed broadcast so replicas
        stay identical under lossy codecs."""
        train, _ = tiny_split
        model = LogisticRegression(train.num_features)
        theta = model.init_theta()
        comp = SketchMLCompressor(SketchMLConfig.full(seed=1))
        keys, values, _ = model.batch_gradient(train, np.arange(100), theta)
        message = comp.compress(keys, values, model.num_parameters)
        driver = Driver(SketchMLCompressor(SketchMLConfig.full(seed=1)),
                        model.num_parameters)
        result = driver.aggregate([message])
        # What the driver returns equals decode(encode(aggregate)).
        re_decoded = driver.compressor.decompress(result.broadcast_message)
        np.testing.assert_array_equal(result.keys, re_decoded[0])
        np.testing.assert_allclose(result.values, re_decoded[1])


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(num_workers=0)
        with pytest.raises(ValueError):
            TrainerConfig(batch_fraction=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)


class TestDistributedTrainer:
    def make_trainer(self, train, method=IdentityCompressor, workers=4, epochs=2,
                     network=None):
        model = LogisticRegression(train.num_features, reg_lambda=0.01)
        return DistributedTrainer(
            model=model,
            optimizer=Adam(learning_rate=0.01),
            compressor_factory=method,
            network=network or cluster1_like(),
            config=TrainerConfig(num_workers=workers, epochs=epochs, seed=0),
        )

    def test_history_structure(self, tiny_split):
        train, test = tiny_split
        trainer = self.make_trainer(train)
        history = trainer.train(train, test)
        assert history.num_epochs == 2
        assert history.num_workers == 4
        assert all(e.num_messages > 0 for e in history.epochs)
        assert all(e.bytes_sent > 0 for e in history.epochs)
        assert all(e.network_seconds > 0 for e in history.epochs)
        assert all(e.test_loss is not None for e in history.epochs)
        assert trainer.theta.shape == (train.num_features,)

    def test_loss_decreases(self, tiny_split):
        train, test = tiny_split
        trainer = self.make_trainer(train, epochs=4)
        history = trainer.train(train, test)
        assert history.test_losses[-1] < history.test_losses[0]

    def test_theta_before_train_raises(self, tiny_split):
        train, _ = tiny_split
        trainer = self.make_trainer(train)
        with pytest.raises(RuntimeError):
            _ = trainer.theta

    def test_compressed_methods_send_fewer_bytes(self, tiny_split):
        train, test = tiny_split
        adam = self.make_trainer(train).train(train, test)
        zipml = self.make_trainer(train, method=ZipMLCompressor).train(train, test)
        sketch = self.make_trainer(train, method=SketchMLCompressor).train(train, test)
        assert zipml.total_bytes_sent < adam.total_bytes_sent
        assert sketch.total_bytes_sent < zipml.total_bytes_sent

    def test_compression_reduces_network_time(self, tiny_split):
        train, test = tiny_split
        adam = self.make_trainer(train).train(train, test)
        sketch = self.make_trainer(train, method=SketchMLCompressor).train(train, test)
        adam_net = sum(e.network_seconds for e in adam.epochs)
        sketch_net = sum(e.network_seconds for e in sketch.epochs)
        assert sketch_net < adam_net

    def test_all_methods_converge_similarly(self, tiny_split):
        """Lossy compression must not destroy convergence (Table 2)."""
        train, test = tiny_split
        results = {}
        for name, method in [
            ("adam", IdentityCompressor),
            ("zipml", ZipMLCompressor),
            ("sketchml", SketchMLCompressor),
        ]:
            history = self.make_trainer(train, method=method, epochs=5).train(
                train, test
            )
            results[name] = history.test_losses[-1]
        baseline = results["adam"]
        for name, loss in results.items():
            assert loss < np.log(2.0)  # all learned something
            assert loss < baseline * 1.15  # within 15% of uncompressed

    def test_deterministic_given_seed(self, tiny_split):
        train, test = tiny_split
        a = self.make_trainer(train).train(train, test)
        b = self.make_trainer(train).train(train, test)
        assert a.test_losses == b.test_losses
        assert a.total_bytes_sent == b.total_bytes_sent

    def test_single_worker(self, tiny_split):
        train, test = tiny_split
        history = self.make_trainer(train, workers=1).train(train, test)
        assert history.num_epochs == 2

    def test_method_label_recorded(self, tiny_split):
        train, _ = tiny_split
        model = LogisticRegression(train.num_features)
        trainer = DistributedTrainer(
            model=model,
            optimizer=Adam(learning_rate=0.01),
            compressor_factory=IdentityCompressor,
            network=infinite_bandwidth(),
            config=TrainerConfig(num_workers=2, epochs=1, method_label="MyMethod"),
        )
        history = trainer.train(train)
        assert history.method == "MyMethod"
        assert history.epochs[0].test_loss is None  # no test set given


class TestModelsUnderTrainer:
    @pytest.mark.parametrize("model_name", ["lr", "svm", "linear"])
    def test_all_three_models_train(self, tiny_split, model_name):
        train, test = tiny_split
        model = make_model(model_name, train.num_features, reg_lambda=0.01)
        trainer = DistributedTrainer(
            model=model,
            optimizer=Adam(learning_rate=0.01),
            compressor_factory=SketchMLCompressor,
            network=cluster1_like(),
            config=TrainerConfig(num_workers=4, epochs=3, seed=0),
        )
        history = trainer.train(train, test)
        assert history.test_losses[-1] <= history.test_losses[0]
