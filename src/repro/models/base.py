"""Model interface for SGD-trainable objectives.

A :class:`Model` knows how to compute, for a mini-batch of rows of a
:class:`~repro.data.sparse.SparseDataset`, the mean loss and the sparse
mean gradient in key–value form — the object SketchML compresses.

Conventions shared by all linear models here (matching §4.1):

* losses are *means* over the batch plus ``lambda/2 * ||theta||^2``
  (the paper writes sums; using means only rescales the tuned learning
  rate and keeps magnitudes comparable across batch sizes);
* the L2-regularisation gradient ``lambda * theta`` is applied lazily on
  the batch's *active* columns only, the standard sparse-training trick
  — it keeps gradients sparse, which the paper's setting presumes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..data.sparse import SparseDataset, row_sums, sum_by_key

__all__ = ["Model", "SparseLinearModel"]


class Model:
    """Abstract SGD-trainable model over a sparse dataset."""

    #: registry-style name used in benchmark tables.
    name: str = "abstract"

    def __init__(self, num_features: int, reg_lambda: float = 0.01) -> None:
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if reg_lambda < 0:
            raise ValueError("reg_lambda must be non-negative")
        self.num_features = int(num_features)
        self.reg_lambda = float(reg_lambda)

    @property
    def num_parameters(self) -> int:
        """Dimension of the parameter vector ``theta``."""
        return self.num_features

    def init_theta(self) -> np.ndarray:
        """Initial parameter vector (zeros for convex linear models)."""
        return np.zeros(self.num_parameters, dtype=np.float64)

    def batch_gradient(
        self, dataset: SparseDataset, rows: np.ndarray, theta: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """Sparse mean gradient and mean loss for a batch.

        Returns:
            ``(keys, values, loss)`` — ascending nonzero gradient keys,
            parallel values, and the batch's regularised mean loss.
        """
        raise NotImplementedError

    def loss(
        self, dataset: SparseDataset, rows: np.ndarray, theta: np.ndarray
    ) -> float:
        """Regularised mean loss over ``rows`` (no gradient)."""
        raise NotImplementedError

    def data_loss(
        self, dataset: SparseDataset, rows: np.ndarray, theta: np.ndarray
    ) -> float:
        """Mean loss *without* the regulariser.

        This is the paper's evaluation metric: Figure 10 and Table 2
        report the testing loss of the data term, not the training
        objective (whose L2 penalty depends on the model norm and would
        mask convergence).
        """
        raise NotImplementedError

    def full_loss(self, dataset: SparseDataset, theta: np.ndarray) -> float:
        """Unregularised loss over a whole dataset (test evaluation)."""
        return self.data_loss(dataset, np.arange(dataset.num_rows), theta)

    def _reg_loss(self, theta: np.ndarray) -> float:
        if self.reg_lambda == 0.0:
            return 0.0
        return 0.5 * self.reg_lambda * float(np.dot(theta, theta))


class SparseLinearModel(Model):
    """Base for linear models ``score = theta . x``.

    Subclasses provide :meth:`_instance_losses` and
    :meth:`_loss_derivatives` in terms of scores and labels; this class
    handles batching, sparsification, and lazy regularisation.
    """

    def _instance_losses(self, scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Per-instance losses given scores and labels."""
        raise NotImplementedError

    def _loss_derivatives(self, scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """d(loss_i)/d(score_i) given scores and labels."""
        raise NotImplementedError

    def predict_scores(
        self, dataset: SparseDataset, rows: np.ndarray, theta: np.ndarray
    ) -> np.ndarray:
        return dataset.dot_rows(rows, theta)

    def batch_gradient(
        self, dataset: SparseDataset, rows: np.ndarray, theta: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            raise ValueError("batch must contain at least one row")
        # One gather of the batch's CSR slice feeds both products.
        columns, data, lengths = dataset.gather(rows)
        scores = row_sums(data * theta[columns], lengths)
        labels = dataset.labels[rows]
        coefficients = self._loss_derivatives(scores, labels) / rows.size
        active, values = sum_by_key(columns, data * np.repeat(coefficients, lengths))
        if self.reg_lambda:
            values = values + self.reg_lambda * theta[active]
        # Keep exact zeros out of the key-value stream (they carry no
        # update and would distort the compression accounting).
        nonzero = values != 0.0
        keys = active[nonzero]
        values = values[nonzero]
        loss = float(np.mean(self._instance_losses(scores, labels)))
        return keys, values, loss + self._reg_loss(theta)

    def loss(
        self, dataset: SparseDataset, rows: np.ndarray, theta: np.ndarray
    ) -> float:
        return self.data_loss(dataset, rows, theta) + self._reg_loss(theta)

    def data_loss(
        self, dataset: SparseDataset, rows: np.ndarray, theta: np.ndarray
    ) -> float:
        rows = np.asarray(rows, dtype=np.int64)
        scores = dataset.dot_rows(rows, theta)
        labels = dataset.labels[rows]
        return float(np.mean(self._instance_losses(scores, labels)))
