"""Tests for LR, SVM, Linear Regression, and the MLP."""

import numpy as np
import pytest

from repro.data import SparseDataset, mnist_like
from repro.models import (
    DenseDataset,
    LinearRegression,
    LinearSVM,
    LogisticRegression,
    MLPClassifier,
    make_model,
)


def toy_dataset(seed=0, rows=200, features=50):
    """Linearly separable-ish sparse classification data."""
    rng = np.random.default_rng(seed)
    true_theta = rng.normal(size=features)
    row_list = []
    labels = []
    for _ in range(rows):
        nnz = rng.integers(3, 10)
        cols = np.sort(rng.choice(features, size=nnz, replace=False))
        vals = rng.normal(size=nnz)
        score = float(np.dot(vals, true_theta[cols]))
        labels.append(1.0 if score >= 0 else -1.0)
        row_list.append((cols, vals))
    return SparseDataset.from_rows(row_list, np.asarray(labels), features)


def numeric_gradient(model, ds, rows, theta, keys, eps=1e-6):
    """Central-difference gradient on the given keys."""
    grad = np.zeros(keys.size)
    for i, k in enumerate(keys):
        theta_p = theta.copy()
        theta_p[k] += eps
        theta_m = theta.copy()
        theta_m[k] -= eps
        grad[i] = (model.loss(ds, rows, theta_p) - model.loss(ds, rows, theta_m)) / (
            2 * eps
        )
    return grad


class TestFactory:
    def test_make_model(self):
        assert isinstance(make_model("lr", 10), LogisticRegression)
        assert isinstance(make_model("svm", 10), LinearSVM)
        assert isinstance(make_model("linear", 10), LinearRegression)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            make_model("xgboost", 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            LogisticRegression(0)
        with pytest.raises(ValueError):
            LogisticRegression(10, reg_lambda=-1)


@pytest.mark.parametrize("model_cls", [LogisticRegression, LinearRegression])
class TestGradientCorrectness:
    """Analytic gradient must match finite differences (smooth losses)."""

    def test_matches_numeric(self, model_cls):
        ds = toy_dataset(seed=1)
        model = model_cls(ds.num_features, reg_lambda=0.01)
        rng = np.random.default_rng(2)
        theta = rng.normal(scale=0.1, size=ds.num_features)
        rows = np.arange(20)
        keys, values, _ = model.batch_gradient(ds, rows, theta)
        sample = keys[:: max(1, keys.size // 10)]
        numeric = numeric_gradient(model, ds, rows, theta, sample)
        analytic = values[np.isin(keys, sample)]
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


class TestLogisticRegression:
    def test_loss_at_zero_is_log2(self):
        ds = toy_dataset(seed=3)
        model = LogisticRegression(ds.num_features, reg_lambda=0.0)
        theta = model.init_theta()
        assert model.full_loss(ds, theta) == pytest.approx(np.log(2.0))

    def test_training_reduces_loss_and_improves_accuracy(self):
        ds = toy_dataset(seed=4)
        model = LogisticRegression(ds.num_features, reg_lambda=0.0)
        theta = model.init_theta()
        rows = np.arange(ds.num_rows)
        initial_loss = model.full_loss(ds, theta)
        for _ in range(200):
            keys, values, _ = model.batch_gradient(ds, rows, theta)
            theta[keys] -= 0.5 * values
        assert model.full_loss(ds, theta) < initial_loss / 2
        assert model.accuracy(ds, rows, theta) > 0.9

    def test_predict_proba_range(self):
        ds = toy_dataset(seed=5)
        model = LogisticRegression(ds.num_features)
        probs = model.predict_proba(ds, np.arange(10), model.init_theta())
        assert np.all((probs >= 0) & (probs <= 1))

    def test_numerically_stable_at_extreme_scores(self):
        ds = toy_dataset(seed=6)
        model = LogisticRegression(ds.num_features, reg_lambda=0.0)
        theta = np.full(ds.num_features, 100.0)
        loss = model.full_loss(ds, theta)
        assert np.isfinite(loss)

    def test_reg_lambda_increases_loss(self):
        ds = toy_dataset(seed=7)
        rows = np.arange(ds.num_rows)
        theta = np.random.default_rng(0).normal(size=ds.num_features)
        plain = LogisticRegression(ds.num_features, reg_lambda=0.0)
        reg = LogisticRegression(ds.num_features, reg_lambda=0.1)
        assert reg.loss(ds, rows, theta) > plain.loss(ds, rows, theta)
        # data_loss ignores regularisation for both.
        assert reg.data_loss(ds, rows, theta) == plain.data_loss(ds, rows, theta)


class TestSVM:
    def test_hinge_subgradient_zero_when_margin_met(self):
        ds = toy_dataset(seed=8)
        model = LinearSVM(ds.num_features, reg_lambda=0.0)
        # Huge theta in the right direction: margins all satisfied.
        rows = np.arange(ds.num_rows)
        theta = np.zeros(ds.num_features)
        for _ in range(300):
            keys, values, _ = model.batch_gradient(ds, rows, theta)
            if keys.size == 0:
                break
            theta[keys] -= 0.5 * values
        final_loss = model.full_loss(ds, theta)
        assert final_loss < 0.2

    def test_loss_at_zero_is_one(self):
        ds = toy_dataset(seed=9)
        model = LinearSVM(ds.num_features, reg_lambda=0.0)
        assert model.full_loss(ds, model.init_theta()) == pytest.approx(1.0)

    def test_accuracy_improves(self):
        ds = toy_dataset(seed=10)
        model = LinearSVM(ds.num_features, reg_lambda=0.0)
        theta = model.init_theta()
        rows = np.arange(ds.num_rows)
        for _ in range(100):
            keys, values, _ = model.batch_gradient(ds, rows, theta)
            theta[keys] -= 0.2 * values
        assert model.accuracy(ds, rows, theta) > 0.85


class TestLinearRegression:
    def test_recovers_linear_relationship(self):
        rng = np.random.default_rng(11)
        features = 20
        true_theta = rng.normal(size=features)
        rows = []
        labels = []
        for _ in range(300):
            cols = np.arange(features)
            vals = rng.normal(size=features)
            rows.append((cols, vals))
            labels.append(float(np.dot(vals, true_theta)))
        ds = SparseDataset.from_rows(rows, np.asarray(labels), features)
        model = LinearRegression(features, reg_lambda=0.0)
        theta = model.init_theta()
        all_rows = np.arange(ds.num_rows)
        for _ in range(500):
            keys, values, _ = model.batch_gradient(ds, all_rows, theta)
            theta[keys] -= 0.05 * values
        np.testing.assert_allclose(theta, true_theta, atol=0.05)

    def test_loss_is_mse(self):
        ds = toy_dataset(seed=12)
        model = LinearRegression(ds.num_features, reg_lambda=0.0)
        theta = model.init_theta()
        scores = ds.dot_rows(np.arange(ds.num_rows), theta)
        expected = np.mean((ds.labels - scores) ** 2)
        assert model.full_loss(ds, theta) == pytest.approx(expected)


class TestBatchGradientContract:
    def test_keys_ascending_and_in_range(self):
        ds = toy_dataset(seed=13)
        model = LogisticRegression(ds.num_features)
        keys, values, _ = model.batch_gradient(
            ds, np.arange(30), model.init_theta()
        )
        assert np.all(np.diff(keys) > 0)
        assert keys.min() >= 0 and keys.max() < ds.num_features
        assert keys.shape == values.shape

    def test_empty_batch_rejected(self):
        ds = toy_dataset(seed=14)
        model = LogisticRegression(ds.num_features)
        with pytest.raises(ValueError, match="at least one row"):
            model.batch_gradient(ds, np.asarray([], dtype=np.int64), model.init_theta())


def reference_batch_gradient(model, ds, rows, theta):
    """The dense formula batch_gradient used before sum_by_key: np.add.at
    into a dense gradient, np.unique for the active columns."""
    rows = np.asarray(rows, dtype=np.int64)
    scores = ds.dot_rows(rows, theta)
    labels = ds.labels[rows]
    coefficients = model._loss_derivatives(scores, labels) / rows.size
    dense = np.zeros(ds.num_features)
    columns = np.concatenate([ds.row(r).keys for r in rows])
    contributions = np.concatenate(
        [ds.row(r).values * c for r, c in zip(rows, coefficients)]
    )
    np.add.at(dense, columns, contributions)
    active = np.unique(columns)
    values = dense[active]
    if model.reg_lambda:
        values = values + model.reg_lambda * theta[active]
    nonzero = values != 0.0
    loss = float(np.mean(model._instance_losses(scores, labels)))
    return active[nonzero], values[nonzero], loss + model._reg_loss(theta)


def cancelling_dataset():
    """Rows 0 and 1 are equal except that column 7 flips sign, so their
    column-7 contributions cancel to exactly 0.0 whenever their
    coefficients agree; rows 2 and 5 are empty."""
    empty = (np.asarray([], dtype=np.int64), np.asarray([]))
    rows = [
        (np.asarray([1, 7, 9]), np.asarray([0.5, 3.0, -1.25])),
        (np.asarray([1, 7, 9]), np.asarray([0.5, -3.0, -1.25])),
        empty,
        (np.asarray([0, 7, 19]), np.asarray([1e-3, 2.0, 7.5])),
        (np.asarray([2, 3, 4, 5, 6]), np.asarray([0.1, -0.2, 0.3, -0.4, 0.5])),
        empty,
    ]
    labels = np.asarray([1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
    return SparseDataset.from_rows(rows, labels, 20)


@pytest.mark.parametrize("model_cls", [LogisticRegression, LinearSVM, LinearRegression])
@pytest.mark.parametrize("reg_lambda", [0.0, 0.01])
class TestBatchGradientBitIdentical:
    """batch_gradient (one gather + sum_by_key) is bit-identical to the
    dense np.add.at formula, keys, values and loss."""

    @staticmethod
    def _assert_same(got, ref):
        np.testing.assert_array_equal(got[0], ref[0])
        assert got[0].dtype == np.int64
        np.testing.assert_array_equal(got[1].view(np.uint64), ref[1].view(np.uint64))
        assert got[2] == ref[2]

    def test_random_batches(self, model_cls, reg_lambda):
        ds = toy_dataset(seed=21, rows=300, features=40)
        model = model_cls(ds.num_features, reg_lambda=reg_lambda)
        rng = np.random.default_rng(22)
        theta = rng.normal(scale=0.3, size=ds.num_features)
        for size in (1, 17, 300):
            rows = rng.choice(ds.num_rows, size=size, replace=False)
            self._assert_same(
                model.batch_gradient(ds, rows, theta),
                reference_batch_gradient(model, ds, rows, theta),
            )

    def test_empty_rows_and_exact_cancellation(self, model_cls, reg_lambda):
        ds = cancelling_dataset()
        model = model_cls(ds.num_features, reg_lambda=reg_lambda)
        # theta is 0 on column 7, so the regulariser cannot revive it.
        theta = np.linspace(-0.2, 0.3, ds.num_features)
        theta[7] = 0.0
        for rows in ([0, 1], [2, 0, 5, 1], [2, 5], [0, 1, 2, 3, 4, 5]):
            got = model.batch_gradient(ds, np.asarray(rows), theta)
            self._assert_same(got, reference_batch_gradient(model, ds, rows, theta))
            assert np.all(got[1] != 0.0)
        keys, _, _ = model.batch_gradient(ds, np.asarray([0, 1]), theta)
        if model_cls is not LinearSVM:
            assert 7 not in keys.tolist() and 1 in keys.tolist()


class TestMLP:
    def test_parameter_count(self):
        mlp = MLPClassifier(input_dim=4, hidden_dims=(3,), num_classes=2)
        # 4*3 + 3 + 3*2 + 2 = 23
        assert mlp.num_parameters == 23

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            MLPClassifier(input_dim=0)

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(15)
        features = rng.uniform(size=(8, 6))
        labels = rng.integers(0, 3, size=8)
        ds = DenseDataset(features, labels)
        mlp = MLPClassifier(input_dim=6, hidden_dims=(5,), num_classes=3, seed=0)
        theta = mlp.init_theta()
        rows = np.arange(8)
        keys, values, _ = mlp.batch_gradient(ds, rows, theta)
        grad = np.zeros(mlp.num_parameters)
        grad[keys] = values
        eps = 1e-6
        sample = np.linspace(0, mlp.num_parameters - 1, 15).astype(int)
        for k in sample:
            tp = theta.copy()
            tp[k] += eps
            tm = theta.copy()
            tm[k] -= eps
            numeric = (mlp.loss(ds, rows, tp) - mlp.loss(ds, rows, tm)) / (2 * eps)
            assert grad[k] == pytest.approx(numeric, rel=1e-3, abs=1e-7)

    def test_learns_mnist_like(self):
        images, labels = mnist_like(num_train=300, seed=2)
        ds = DenseDataset(images, labels)
        mlp = MLPClassifier(
            input_dim=400, hidden_dims=(32,), num_classes=10, seed=1
        )
        theta = mlp.init_theta()
        rng = np.random.default_rng(0)
        initial = mlp.full_loss(ds, theta)
        for _ in range(30):
            for rows in ds.iter_batches(60, rng):
                keys, values, _ = mlp.batch_gradient(ds, rows, theta)
                theta[keys] -= 0.1 * values
        assert mlp.full_loss(ds, theta) < initial / 2
        assert mlp.accuracy(ds, np.arange(ds.num_rows), theta) > 0.6

    def test_dense_dataset_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            DenseDataset(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError, match="parallel"):
            DenseDataset(np.zeros((5, 2)), np.zeros(4))

    def test_gradient_is_dense(self):
        """MLP gradients touch essentially every parameter — the regime
        where the paper notes key compression is redundant (§B.3)."""
        images, labels = mnist_like(num_train=64, seed=3)
        ds = DenseDataset(images, labels)
        mlp = MLPClassifier(input_dim=400, hidden_dims=(16,), num_classes=10)
        keys, _, _ = mlp.batch_gradient(ds, np.arange(64), mlp.init_theta())
        assert keys.size > 0.95 * mlp.num_parameters
