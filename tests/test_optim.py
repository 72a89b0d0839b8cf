"""Tests for the sparse optimizers and LR schedules."""

import copy
import pickle

import numpy as np
import pytest

from repro.optim import (
    Adam,
    AdaGrad,
    ConstantLR,
    ExponentialDecayLR,
    InverseDecayLR,
    Momentum,
    SGD,
    StepDecayLR,
    make_optimizer,
    make_schedule,
)


def quadratic_gradient(theta, target):
    """Gradient of 0.5 ||theta - target||^2 over all keys."""
    keys = np.arange(theta.size)
    return keys, theta - target


class TestFactory:
    def test_make_optimizer(self):
        assert isinstance(make_optimizer("sgd"), SGD)
        assert isinstance(make_optimizer("adam", learning_rate=0.5), Adam)
        assert isinstance(make_optimizer("momentum"), Momentum)
        assert isinstance(make_optimizer("adagrad"), AdaGrad)

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            make_optimizer("lbfgs")

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0.0)
        with pytest.raises(ValueError):
            Momentum(beta=1.0)
        with pytest.raises(ValueError):
            Adam(beta1=1.5)


@pytest.mark.parametrize(
    "optimizer",
    [
        SGD(learning_rate=0.1),
        Momentum(learning_rate=0.05, beta=0.9),
        Momentum(learning_rate=0.05, beta=0.9, nesterov=True),
        AdaGrad(learning_rate=0.5),
        Adam(learning_rate=0.2),
    ],
    ids=lambda o: repr(o),
)
class TestConvergenceOnQuadratic:
    def test_converges_to_target(self, optimizer):
        optimizer.reset()
        rng = np.random.default_rng(0)
        target = rng.normal(size=20)
        theta = np.zeros(20)
        optimizer.prepare(20)
        for _ in range(500):
            keys, values = quadratic_gradient(theta, target)
            optimizer.step(theta, keys, values)
        np.testing.assert_allclose(theta, target, atol=0.05)


class TestSparseUpdates:
    def test_only_active_keys_move(self):
        for optimizer in (SGD(0.1), Momentum(0.1), AdaGrad(0.1), Adam(0.1)):
            theta = np.zeros(10)
            optimizer.prepare(10)
            optimizer.step(theta, np.asarray([2, 7]), np.asarray([1.0, -1.0]))
            moved = np.flatnonzero(theta)
            assert moved.tolist() == [2, 7]

    def test_adam_direction_opposes_gradient(self):
        adam = Adam(learning_rate=0.1)
        theta = np.zeros(4)
        adam.prepare(4)
        adam.step(theta, np.asarray([0, 1]), np.asarray([1.0, -1.0]))
        assert theta[0] < 0
        assert theta[1] > 0

    def test_adam_adapts_to_gradient_scale(self):
        """Adam's per-dimension normalisation: dimensions with tiny
        gradients take steps comparable to large-gradient dimensions —
        the property §3.3 uses to compensate decayed gradients."""
        adam = Adam(learning_rate=0.1)
        theta = np.zeros(2)
        adam.prepare(2)
        for _ in range(20):
            adam.step(theta, np.asarray([0, 1]), np.asarray([1.0, 1e-4]))
        # Both dimensions should have moved a similar (O(lr)) amount.
        assert abs(theta[1]) > 0.25 * abs(theta[0])

    def test_sgd_step_is_linear(self):
        sgd = SGD(learning_rate=0.5)
        theta = np.zeros(3)
        sgd.step(theta, np.asarray([1]), np.asarray([2.0]))
        assert theta[1] == pytest.approx(-1.0)

    def test_reset_clears_state(self):
        adam = Adam(learning_rate=0.1)
        theta = np.zeros(3)
        adam.prepare(3)
        adam.step(theta, np.asarray([0]), np.asarray([1.0]))
        adam.reset()
        assert adam._m[0] == 0.0
        assert adam._v[0] == 0.0
        assert adam._steps[0] == 0

    def test_momentum_accumulates(self):
        mom = Momentum(learning_rate=0.1, beta=0.9)
        theta = np.zeros(1)
        mom.prepare(1)
        mom.step(theta, np.asarray([0]), np.asarray([1.0]))
        first_step = -theta[0]
        theta[:] = 0
        mom.reset()
        for _ in range(10):
            mom.step(theta, np.asarray([0]), np.asarray([1.0]))
        # With momentum the 10-step displacement exceeds 10 plain steps.
        assert -theta[0] > 10 * first_step

    def test_lazy_bias_correction_counts_per_dimension(self):
        adam = Adam(learning_rate=0.1)
        theta = np.zeros(2)
        adam.prepare(2)
        adam.step(theta, np.asarray([0]), np.asarray([1.0]))
        adam.step(theta, np.asarray([0, 1]), np.asarray([1.0, 1.0]))
        assert adam._steps[0] == 2
        assert adam._steps[1] == 1


def _reference_adam_step(adam, m, v, steps, theta, keys, values):
    """Adam.step as first written: every state row re-gathered per use."""
    m[keys] = adam.beta1 * m[keys] + (1.0 - adam.beta1) * values
    v[keys] = adam.beta2 * v[keys] + (1.0 - adam.beta2) * values**2
    if adam.bias_correction:
        steps[keys] += 1
        t = steps[keys]
        m_hat = m[keys] / (1.0 - adam.beta1**t)
        v_hat = v[keys] / (1.0 - adam.beta2**t)
    else:
        m_hat = m[keys]
        v_hat = v[keys]
    theta[keys] -= adam.learning_rate * m_hat / (np.sqrt(v_hat) + adam.epsilon)


@pytest.mark.parametrize("bias_correction", [True, False])
def test_adam_gather_once_is_bit_identical(bias_correction):
    """Updating each gathered state row in place, with the bias
    correction read from a grown table, must not move a single bit of
    theta or the optimizer state (keys are unique on every call path).

    3 000 steps over a small key set take step counts past the table's
    first growth; the learning rate changes between steps as an UPDATE
    sets it; every tenth step is empty, a no-op."""
    dim = 300
    rng = np.random.default_rng(42)
    adam = Adam(learning_rate=0.01, bias_correction=bias_correction)
    adam.prepare(dim)
    theta = rng.normal(size=dim)
    ref_theta = theta.copy()
    ref_m, ref_v = np.zeros(dim), np.zeros(dim)
    ref_steps = np.zeros(dim, dtype=np.int64)
    for i in range(3_000):
        nnz = 0 if i % 10 == 9 else int(rng.integers(150, dim))
        keys = np.sort(rng.choice(dim, size=nnz, replace=False))
        values = rng.laplace(scale=0.05, size=nnz)
        adam.learning_rate = float(rng.uniform(0.001, 0.1))
        adam.step(theta, keys, values)
        _reference_adam_step(
            adam, ref_m, ref_v, ref_steps, ref_theta, keys, values
        )
    if bias_correction:
        assert ref_steps.max() > 1024  # past the table's first size
    np.testing.assert_array_equal(theta, ref_theta)
    np.testing.assert_array_equal(adam._m, ref_m)
    np.testing.assert_array_equal(adam._v, ref_v)
    np.testing.assert_array_equal(adam._steps, ref_steps)


def test_adam_bias_table_is_not_pickled():
    """The denominator table is derived state: a pickled (SYNC) or
    deep-copied optimizer drops it and rebuilds it identically."""
    adam = Adam(learning_rate=0.1)
    theta = np.zeros(3)
    adam.step(theta, np.asarray([0, 2]), np.asarray([0.5, -1.0]))
    assert adam._denominators is not None
    clone = pickle.loads(pickle.dumps(adam))
    assert clone._denominators is None and copy.deepcopy(adam)._denominators is None
    np.testing.assert_array_equal(clone._steps, adam._steps)
    other = theta.copy()
    adam.step(theta, np.asarray([0, 1]), np.asarray([0.25, 0.75]))
    clone.step(other, np.asarray([0, 1]), np.asarray([0.25, 0.75]))
    np.testing.assert_array_equal(theta, other)


class TestSchedules:
    def test_constant(self):
        s = ConstantLR()
        assert s(0) == s(100) == 1.0

    def test_inverse_decay(self):
        s = InverseDecayLR(rate=0.1)
        assert s(0) == 1.0
        assert s(10) == pytest.approx(0.5)

    def test_exponential(self):
        s = ExponentialDecayLR(gamma=0.5)
        assert s(3) == pytest.approx(0.125)

    def test_step_decay(self):
        s = StepDecayLR(step_size=10, factor=0.5)
        assert s(9) == 1.0
        assert s(10) == 0.5
        assert s(25) == 0.25

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            ConstantLR()(-1)

    def test_factory_and_validation(self):
        assert isinstance(make_schedule("constant"), ConstantLR)
        assert isinstance(make_schedule("inverse", rate=0.5), InverseDecayLR)
        with pytest.raises(ValueError, match="unknown schedule"):
            make_schedule("cosine")
        with pytest.raises(ValueError):
            ExponentialDecayLR(gamma=0.0)
        with pytest.raises(ValueError):
            StepDecayLR(step_size=0)
        with pytest.raises(ValueError):
            InverseDecayLR(rate=-1)
