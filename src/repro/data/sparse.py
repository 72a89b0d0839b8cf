"""Sparse data structures: vectors and CSR datasets.

These are the substrate the paper assumes: training instances are
high-dimensional sparse rows, gradients are sparse key–value vectors.
Implemented from scratch on numpy (no scipy dependency in the library
proper) with the vectorised gather/scatter kernels mini-batch SGD needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

__all__ = ["SparseVector", "SparseDataset", "row_sums", "sum_by_key"]


def row_sums(products: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-row sums of a row-major gathered array (empty rows sum to 0)."""
    out = np.zeros(lengths.size, dtype=np.float64)
    if products.size == 0:
        return out
    boundaries = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    nonempty = lengths > 0
    out[nonempty] = np.add.reduceat(products, boundaries[nonempty])
    return out


def sum_by_key(
    keys: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``keys`` and the sum of each key's ``values``.

    The one "sum values per key" kernel: the batch gradient, the driver
    merge and the error-feedback residual merge all call it.  A
    seen-mask over ``[0, max key]`` gives the distinct keys in order, a
    slot map sends each key to its rank and one weighted ``bincount``
    sums per rank — no sort, no ``np.unique`` (a hash table on recent
    numpy), no dense float vector.  ``bincount`` adds each key's values
    left to right in input order from 0.0, exactly as ``np.add.at``
    into zeros does, so the sums are bit-identical to the
    ``np.unique`` + ``np.add.at`` reference.

    Keys must be non-negative integers; ``values`` is parallel.
    """
    keys = np.asarray(keys)
    values = np.asarray(values, dtype=np.float64)
    if keys.shape != values.shape or keys.ndim != 1:
        raise ValueError("keys and values must be parallel 1-D arrays")
    if keys.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if keys.min() < 0:
        raise ValueError("keys must be non-negative")
    seen = np.zeros(int(keys.max()) + 1, dtype=bool)
    seen[keys] = True
    distinct = np.flatnonzero(seen)
    slot = np.empty(seen.size, dtype=np.intp)
    slot[distinct] = np.arange(distinct.size)
    sums = np.bincount(slot[keys], weights=values, minlength=distinct.size)
    return distinct.astype(np.int64, copy=False), sums


@dataclass
class SparseVector:
    """A sparse vector as parallel ``(keys, values)`` arrays.

    Keys are strictly ascending int64 indexes into ``[0, dimension)``;
    values are float64.  This is exactly the ``{(k_j, v_j)}`` form the
    paper compresses.
    """

    keys: np.ndarray
    values: np.ndarray
    dimension: int

    def __post_init__(self) -> None:
        self.keys = np.asarray(self.keys, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.keys.shape != self.values.shape or self.keys.ndim != 1:
            raise ValueError("keys and values must be parallel 1-D arrays")
        if self.keys.size:
            if self.keys.min() < 0 or self.keys.max() >= self.dimension:
                raise ValueError(f"keys must lie in [0, {self.dimension})")
            if self.keys.size > 1 and np.any(np.diff(self.keys) <= 0):
                raise ValueError("keys must be strictly ascending")

    @classmethod
    def from_dense(cls, dense: np.ndarray, tolerance: float = 0.0) -> "SparseVector":
        """Extract entries with ``|value| > tolerance`` from a dense vector."""
        dense = np.asarray(dense, dtype=np.float64)
        keys = np.flatnonzero(np.abs(dense) > tolerance)
        return cls(keys=keys, values=dense[keys], dimension=dense.size)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dimension, dtype=np.float64)
        dense[self.keys] = self.values
        return dense

    @property
    def nnz(self) -> int:
        return int(self.keys.size)

    @property
    def density(self) -> float:
        """Fraction of nonzero dimensions — the paper's 'sparsity' metric."""
        return self.nnz / self.dimension if self.dimension else 0.0

    def dot(self, dense: np.ndarray) -> float:
        """Inner product with a dense vector."""
        return float(np.dot(self.values, dense[self.keys]))

    def add_into(self, dense: np.ndarray, scale: float = 1.0) -> None:
        """In-place ``dense[keys] += scale * values``."""
        np.add.at(dense, self.keys, scale * self.values)

    def scaled(self, scale: float) -> "SparseVector":
        return SparseVector(self.keys.copy(), self.values * scale, self.dimension)

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def __len__(self) -> int:
        return self.nnz

    def __repr__(self) -> str:
        return f"SparseVector(nnz={self.nnz}, dimension={self.dimension})"


class SparseDataset:
    """CSR-format labelled dataset with vectorised mini-batch kernels.

    Rows are training instances; ``labels`` is parallel to rows.  A
    mini-batch step reads the batch's CSR slice once and does both of
    its products on that one gather:

    * :meth:`gather` — the slice itself: column indices, values and
      per-row lengths, row-major over a row subset;
    * :meth:`dot_rows` — ``X[rows] @ theta`` (one gather plus
      :func:`row_sums`);
    * ``X[rows].T @ coefficients`` is :func:`sum_by_key` over the
      gathered columns, which yields the sparse gradient's sorted keys
      and values directly (see ``SparseLinearModel.batch_gradient``).

    Args:
        indptr: CSR row pointer, length ``num_rows + 1``.
        indices: CSR column indices (int64, ascending within each row).
        data: CSR values (float64).
        labels: per-row labels (float64).
        num_features: model dimension ``D``.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        labels: np.ndarray,
        num_features: int,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64)
        self.num_features = int(num_features)
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise ValueError("indptr must be a 1-D array of length num_rows + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must be parallel")
        if self.labels.size != self.num_rows:
            raise ValueError(
                f"labels length {self.labels.size} != num_rows {self.num_rows}"
            )
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.num_features
        ):
            raise ValueError(f"indices must lie in [0, {num_features})")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        rows: "list[Tuple[np.ndarray, np.ndarray]]",
        labels: np.ndarray,
        num_features: int,
    ) -> "SparseDataset":
        """Build from a list of per-row ``(indices, values)`` pairs."""
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        for i, (idx, _) in enumerate(rows):
            indptr[i + 1] = indptr[i] + len(idx)
        if rows:
            indices = np.concatenate([np.asarray(idx) for idx, _ in rows])
            data = np.concatenate([np.asarray(val) for _, val in rows])
        else:
            indices = np.empty(0, dtype=np.int64)
            data = np.empty(0, dtype=np.float64)
        return cls(indptr, indices, data, np.asarray(labels), num_features)

    # ------------------------------------------------------------------
    # shape / access
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def avg_nnz_per_row(self) -> float:
        return self.nnz / self.num_rows if self.num_rows else 0.0

    def row(self, i: int) -> SparseVector:
        start, end = self.indptr[i], self.indptr[i + 1]
        return SparseVector(
            self.indices[start:end], self.data[start:end], self.num_features
        )

    # ------------------------------------------------------------------
    # SGD kernels
    # ------------------------------------------------------------------
    def gather(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The CSR slice of a row subset: ``(columns, values, lengths)``.

        ``columns``/``values`` hold the rows' entries row-major over
        ``rows``; ``lengths[i]`` is the entry count of ``rows[i]``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        # positions = concat(arange(start_i, start_i + len_i))
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if ends.size else 0
        positions = (
            np.arange(total, dtype=np.int64)
            - np.repeat(ends - lengths, lengths)
            + np.repeat(starts, lengths)
        )
        return self.indices[positions], self.data[positions], lengths

    def dot_rows(self, rows: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """``X[rows] @ theta`` as a 1-D array of length ``len(rows)``."""
        columns, values, lengths = self.gather(rows)
        return row_sums(values * theta[columns], lengths)

    # ------------------------------------------------------------------
    # slicing / iteration
    # ------------------------------------------------------------------
    def subset(self, rows: np.ndarray) -> "SparseDataset":
        """A new dataset containing only ``rows`` (copies the data)."""
        rows = np.asarray(rows, dtype=np.int64)
        columns, values, lengths = self.gather(rows)
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        return SparseDataset(
            indptr, columns, values, self.labels[rows], self.num_features
        )

    def iter_batches(
        self, batch_size: int, rng: np.random.Generator, shuffle: bool = True
    ) -> Iterator[np.ndarray]:
        """Yield row-index arrays covering the dataset once (one epoch)."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        order = np.arange(self.num_rows)
        if shuffle:
            rng.shuffle(order)
        for start in range(0, self.num_rows, batch_size):
            yield order[start:start + batch_size]

    def __repr__(self) -> str:
        return (
            f"SparseDataset(rows={self.num_rows}, features={self.num_features}, "
            f"nnz={self.nnz})"
        )
