"""Sparse-aware optimizers: SGD variants, AdaGrad, and Adam (§4.1).

Every optimizer applies a *sparse* update — only the dimensions present
in the gradient's key set move — which is both what a parameter-server
deployment does and a prerequisite for SketchML's decayed gradients to
be compensated per-dimension (§3.3 Solution 2 pairs the MinMaxSketch
with Adam's adaptive learning rate precisely because Adam rescales slow
dimensions individually).

All optimizer state (momentum, second moments) is kept dense but only
touched on active keys, the standard lazy sparse-update scheme.
"""

from __future__ import annotations

import copy

import numpy as np

__all__ = ["Optimizer", "SGD", "Momentum", "AdaGrad", "Adam", "make_optimizer"]


class Optimizer:
    """Abstract sparse optimizer.

    Args:
        learning_rate: base step size ``eta``.
    """

    name = "abstract"
    #: attributes holding per-parameter state: :meth:`prepare`
    #: allocates them and :meth:`unprepared` leaves them out
    _state_attrs: tuple = ()

    def __init__(self, learning_rate: float = 0.1) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)

    def prepare(self, num_parameters: int) -> None:
        """Allocate state for a parameter vector of the given size."""

    def unprepared(self) -> "Optimizer":
        """A copy with this optimizer's hyper-parameters and none of its
        per-parameter state, as it was before :meth:`prepare`; the
        state arrays are never copied."""
        clone = copy.copy(self)
        for name in self._state_attrs:
            setattr(clone, name, None)
        return copy.deepcopy(clone)

    def step(self, theta: np.ndarray, keys: np.ndarray, values: np.ndarray) -> None:
        """Apply one sparse update to ``theta`` in place."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear optimizer state between runs."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(lr={self.learning_rate})"


class SGD(Optimizer):
    """Plain stochastic gradient descent: ``theta[k] -= eta * g[k]``."""

    name = "sgd"

    def step(self, theta: np.ndarray, keys: np.ndarray, values: np.ndarray) -> None:
        theta[keys] -= self.learning_rate * values


class Momentum(Optimizer):
    """Heavy-ball momentum (Polyak) with optional Nesterov correction."""

    name = "momentum"
    _state_attrs = ("_velocity",)

    def __init__(
        self, learning_rate: float = 0.1, beta: float = 0.9, nesterov: bool = False
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        self.beta = float(beta)
        self.nesterov = bool(nesterov)
        self._velocity: np.ndarray | None = None

    def prepare(self, num_parameters: int) -> None:
        self._velocity = np.zeros(num_parameters, dtype=np.float64)

    def reset(self) -> None:
        if self._velocity is not None:
            self._velocity[:] = 0.0

    def step(self, theta: np.ndarray, keys: np.ndarray, values: np.ndarray) -> None:
        if self._velocity is None:
            self.prepare(theta.size)
        v = self._velocity
        v[keys] = self.beta * v[keys] + values
        if self.nesterov:
            update = self.beta * v[keys] + values
        else:
            update = v[keys]
        theta[keys] -= self.learning_rate * update


class AdaGrad(Optimizer):
    """Per-dimension adaptive learning rate from accumulated squares."""

    name = "adagrad"
    _state_attrs = ("_accum",)

    def __init__(self, learning_rate: float = 0.1, epsilon: float = 1e-8) -> None:
        super().__init__(learning_rate)
        self.epsilon = float(epsilon)
        self._accum: np.ndarray | None = None

    def prepare(self, num_parameters: int) -> None:
        self._accum = np.zeros(num_parameters, dtype=np.float64)

    def reset(self) -> None:
        if self._accum is not None:
            self._accum[:] = 0.0

    def step(self, theta: np.ndarray, keys: np.ndarray, values: np.ndarray) -> None:
        if self._accum is None:
            self.prepare(theta.size)
        self._accum[keys] += values**2
        theta[keys] -= (
            self.learning_rate * values / (np.sqrt(self._accum[keys]) + self.epsilon)
        )


class Adam(Optimizer):
    """Adam (Kingma & Ba 2014) with the paper's hyper-parameters.

    §4.1: ``beta1 = 0.9``, ``beta2 = 0.999``, ``epsilon = 1e-8``.  The
    update follows the paper's formulation::

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g^2
        theta -= eta / (sqrt(v) + eps) * m

    with standard bias correction (on by default) using a per-dimension
    step counter, the correct form under sparse (lazy) updates.  The
    correction denominators ``1 - beta**t`` are read from a table over
    ``t``, grown on demand; it is derived state, so it is neither
    checkpointed nor pickled.
    """

    name = "adam"
    _state_attrs = ("_m", "_v", "_steps", "_denominators")

    def __init__(
        self,
        learning_rate: float = 0.1,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        bias_correction: bool = True,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.bias_correction = bool(bias_correction)
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._steps: np.ndarray | None = None
        self._denominators: tuple | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_denominators"] = None
        return state

    def prepare(self, num_parameters: int) -> None:
        self._m = np.zeros(num_parameters, dtype=np.float64)
        self._v = np.zeros(num_parameters, dtype=np.float64)
        self._steps = np.zeros(num_parameters, dtype=np.int64)

    def reset(self) -> None:
        if self._m is not None:
            self._m[:] = 0.0
            self._v[:] = 0.0
            self._steps[:] = 0

    def _bias_denominators(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``1 - beta1**t`` and ``1 - beta2**t`` for step counts ``t``."""
        tables = self._denominators
        size = 0 if tables is None else tables[0].size
        top = int(t.max())
        if top >= size:
            exponents = np.arange(max(1024, 2 * size, top + 1), dtype=np.int64)
            tables = (1.0 - self.beta1**exponents, 1.0 - self.beta2**exponents)
            self._denominators = tables
        return tables[0].take(t), tables[1].take(t)

    def step(self, theta: np.ndarray, keys: np.ndarray, values: np.ndarray) -> None:
        if self._m is None:
            self.prepare(theta.size)
        if keys.size == 0:
            return
        # Keys are unique on every call path, so each state row is
        # gathered once, updated in place and scattered back once.
        m = self._m.take(keys)
        m *= self.beta1
        m += (1.0 - self.beta1) * values
        v = self._v.take(keys)
        v *= self.beta2
        v += (1.0 - self.beta2) * values**2
        self._m[keys] = m
        self._v[keys] = v
        if self.bias_correction:
            t = self._steps.take(keys)
            t += 1
            self._steps[keys] = t
            m_denominators, v_denominators = self._bias_denominators(t)
            m /= m_denominators
            v /= v_denominators
        np.sqrt(v, out=v)
        v += self.epsilon
        m *= self.learning_rate
        m /= v
        theta[keys] -= m


def make_optimizer(name: str, learning_rate: float = 0.1, **kwargs) -> Optimizer:
    """Build an optimizer by name (``sgd``/``momentum``/``adagrad``/``adam``)."""
    optimizers = {
        "sgd": SGD,
        "momentum": Momentum,
        "adagrad": AdaGrad,
        "adam": Adam,
    }
    try:
        cls = optimizers[name]
    except KeyError:
        raise ValueError(
            f"unknown optimizer {name!r}; choose from {sorted(optimizers)}"
        ) from None
    return cls(learning_rate=learning_rate, **kwargs)
