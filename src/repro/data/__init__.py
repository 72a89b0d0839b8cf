"""Sparse data substrate: structures, synthetic generators, I/O, splits."""

from .io import read_libsvm, write_libsvm
from .sparse import SparseDataset, SparseVector, sum_by_key
from .splits import partition_rows, train_test_split
from .synthetic import (
    CTR_LIKE,
    KDD10_LIKE,
    KDD12_LIKE,
    SyntheticProfile,
    ctr_like,
    generate_dataset,
    generate_profile,
    kdd10_like,
    kdd12_like,
    mnist_like,
)
from .transforms import hash_features, normalize_rows, subsample_rows

__all__ = [
    "SparseVector",
    "SparseDataset",
    "sum_by_key",
    "read_libsvm",
    "write_libsvm",
    "train_test_split",
    "partition_rows",
    "SyntheticProfile",
    "KDD10_LIKE",
    "KDD12_LIKE",
    "CTR_LIKE",
    "generate_dataset",
    "generate_profile",
    "kdd10_like",
    "kdd12_like",
    "ctr_like",
    "mnist_like",
    "hash_features",
    "normalize_rows",
    "subsample_rows",
]
