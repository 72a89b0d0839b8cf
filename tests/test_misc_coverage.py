"""Targeted tests for smaller code paths not covered elsewhere."""

import numpy as np
import pytest

from repro.compression.base import (
    CompressedGradient,
    GradientCompressor,
    register_compressor,
    validate_sparse_gradient,
)
from repro.compression import IdentityCompressor
from repro.data import mnist_like
from repro.distributed import Worker
from repro.models import DenseDataset, MLPClassifier, Model
from repro.models.base import Model as BaseModel


class TestCompressedGradient:
    def test_raw_bytes_and_rate(self):
        msg = CompressedGradient(payload=None, num_bytes=600, dimension=10, nnz=100)
        assert msg.raw_bytes == 1_200
        assert msg.compression_rate == pytest.approx(2.0)

    def test_zero_bytes_rate_is_inf(self):
        msg = CompressedGradient(payload=None, num_bytes=0, dimension=10, nnz=5)
        assert msg.compression_rate == float("inf")


class TestGradientCompressorBase:
    def test_abstract_methods_raise(self):
        comp = GradientCompressor()
        with pytest.raises(NotImplementedError):
            comp.compress(np.asarray([0]), np.asarray([1.0]), 1)
        with pytest.raises(NotImplementedError):
            comp.decompress(
                CompressedGradient(payload=None, num_bytes=0, dimension=1, nnz=0)
            )
        comp.reset()  # default no-op must not raise
        assert "GradientCompressor" in repr(comp)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_compressor("identity")(IdentityCompressor)

    def test_validate_sparse_gradient_canonicalises(self):
        keys, values = validate_sparse_gradient([1, 5], [0.5, -0.5], 10)
        assert keys.dtype == np.int64
        assert values.dtype == np.float64

    def test_validate_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            validate_sparse_gradient(np.zeros((2, 2)), np.zeros((2, 2)), 10)


class TestModelBase:
    def test_abstract_methods_raise(self):
        model = BaseModel(num_features=5)
        with pytest.raises(NotImplementedError):
            model.batch_gradient(None, np.asarray([0]), np.zeros(5))
        with pytest.raises(NotImplementedError):
            model.data_loss(None, np.asarray([0]), np.zeros(5))
        assert model.num_parameters == 5
        assert model.init_theta().shape == (5,)

    def test_reg_loss_zero_lambda(self):
        model = BaseModel(num_features=3, reg_lambda=0.0)
        assert model._reg_loss(np.ones(3)) == 0.0


class TestWorkerDensePath:
    def test_batch_nnz_counts_every_cell(self):
        images, labels = mnist_like(num_train=30, seed=0)
        dataset = DenseDataset(images, labels)
        model = MLPClassifier(input_dim=400, hidden_dims=(8,), num_classes=10)
        worker = Worker(
            worker_id=0,
            dataset=dataset,
            model=model,
            compressor=IdentityCompressor(),
            batch_size=10,
            compute_seconds_per_nnz=1.0,  # 1 second per cell -> easy check
        )
        worker.start_epoch()
        rows = worker.next_batch()
        result = worker.compute_step(rows, model.init_theta())
        # Modelled compute = rows * 400 pixels * 1 s/pixel (plus tiny
        # measured time).
        assert result.compute_seconds == pytest.approx(rows.size * 400, rel=0.01)

    def test_negative_rate_rejected(self):
        images, labels = mnist_like(num_train=10, seed=1)
        dataset = DenseDataset(images, labels)
        model = MLPClassifier(input_dim=400, hidden_dims=(4,), num_classes=10)
        with pytest.raises(ValueError):
            Worker(0, dataset, model, IdentityCompressor(), batch_size=5,
                   compute_seconds_per_nnz=-1.0)


class TestSparseVectorRepr:
    def test_reprs_are_informative(self):
        from repro.core import MinMaxSketch, SketchMLCompressor, SketchMLConfig
        from repro.data import SparseVector

        assert "nnz=2" in repr(SparseVector(np.asarray([0, 1]), np.ones(2), 4))
        assert "rows=" in repr(MinMaxSketch())
        assert "Adam" in repr(SketchMLCompressor(SketchMLConfig.adam()))
