"""Deeper property-based tests over the core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GroupedMinMaxSketch, SketchMLCompressor, SketchMLConfig
from repro.core.quantizer import QuantileBucketQuantizer
from repro.data import SparseDataset
from repro.distributed import aggregate_sparse_gradients


# ----------------------------------------------------------------------
# GroupedMinMaxSketch: partition is a lossless re-arrangement
# ----------------------------------------------------------------------
@given(
    n=st.integers(min_value=1, max_value=300),
    groups=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=40, deadline=None)
def test_partition_is_a_permutation(n, groups, seed):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(10**6, size=n, replace=False))
    indexes = rng.integers(0, 64, size=n)
    grouped = GroupedMinMaxSketch(num_groups=groups, index_range=64, seed=seed)
    partitions = grouped.partition(keys, indexes)
    rebuilt = {}
    for g, (part_keys, offsets) in enumerate(partitions):
        for key, offset in zip(part_keys.tolist(), offsets.tolist()):
            assert key not in rebuilt
            rebuilt[key] = g * grouped.group_width + offset
    assert rebuilt == dict(zip(keys.tolist(), indexes.tolist()))


# ----------------------------------------------------------------------
# Aggregation equals the dense-reference average
# ----------------------------------------------------------------------
@given(
    num_workers=st.integers(min_value=1, max_value=6),
    dimension=st.integers(min_value=5, max_value=200),
    seed=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=40, deadline=None)
def test_aggregation_matches_dense_reference(num_workers, dimension, seed):
    rng = np.random.default_rng(seed)
    gradients = []
    dense_sum = np.zeros(dimension)
    for _ in range(num_workers):
        nnz = int(rng.integers(0, dimension))
        keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
        values = rng.normal(size=nnz)
        gradients.append((keys, values))
        np.add.at(dense_sum, keys, values)
    keys, values = aggregate_sparse_gradients(gradients)
    dense_mean = dense_sum / num_workers
    reference_keys = np.flatnonzero(dense_sum)
    # Every key present in any gradient appears exactly once, sorted.
    np.testing.assert_array_equal(
        keys, np.unique(np.concatenate([k for k, _ in gradients]))
    )
    rebuilt = np.zeros(dimension)
    rebuilt[keys] = values
    np.testing.assert_allclose(rebuilt[reference_keys], dense_mean[reference_keys])


# ----------------------------------------------------------------------
# Quantizer bucket-budget split properties
# ----------------------------------------------------------------------
@given(
    n_pos=st.integers(min_value=0, max_value=5_000),
    n_neg=st.integers(min_value=0, max_value=5_000),
    q=st.integers(min_value=2, max_value=256),
)
@settings(max_examples=60, deadline=None)
def test_bucket_budget_split(n_pos, n_neg, q):
    if n_pos + n_neg == 0:
        return  # fit() rejects empty gradients before the split runs
    quant = QuantileBucketQuantizer(num_buckets=q)
    q_pos, q_neg = quant._split_budget(n_pos, n_neg)
    assert q_pos + q_neg == q
    if n_pos and n_neg:
        assert q_pos >= 1 and q_neg >= 1
    if n_pos == 0:
        assert q_pos == 0
    if n_neg == 0:
        assert q_neg == 0


# ----------------------------------------------------------------------
# Compressor: repeated decompression is idempotent and side-effect free
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=20, deadline=None)
def test_decompress_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    nnz = int(rng.integers(10, 400))
    dimension = nnz * 10
    keys = np.sort(rng.choice(dimension, size=nnz, replace=False))
    values = rng.normal(scale=0.05, size=nnz)
    values[values == 0.0] = 0.01
    comp = SketchMLCompressor(SketchMLConfig.full(seed=seed))
    message = comp.compress(keys, values, dimension)
    first = comp.decompress(message)
    second = comp.decompress(message)
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])


# ----------------------------------------------------------------------
# SparseDataset: subset composition behaves like fancy indexing
# ----------------------------------------------------------------------
@given(
    rows=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=30, deadline=None)
def test_subset_composes(rows, seed):
    rng = np.random.default_rng(seed)
    features = 50
    row_list = []
    for _ in range(rows):
        nnz = int(rng.integers(1, 10))
        cols = np.sort(rng.choice(features, size=nnz, replace=False))
        row_list.append((cols, rng.normal(size=nnz)))
    ds = SparseDataset.from_rows(row_list, rng.normal(size=rows), features)
    outer = np.sort(rng.choice(rows, size=max(1, rows // 2), replace=False))
    inner = np.sort(
        rng.choice(outer.size, size=max(1, outer.size // 2), replace=False)
    )
    # subset(outer).subset(inner) == subset(outer[inner])
    composed = ds.subset(outer).subset(inner)
    direct = ds.subset(outer[inner])
    np.testing.assert_array_equal(composed.indices, direct.indices)
    np.testing.assert_allclose(composed.data, direct.data)
    np.testing.assert_allclose(composed.labels, direct.labels)


# ----------------------------------------------------------------------
# Trainer edge cases
# ----------------------------------------------------------------------
class TestTrainerEdgeCases:
    def test_full_batch_fraction(self, tiny_split):
        from repro.compression import IdentityCompressor
        from repro.distributed import (
            DistributedTrainer,
            TrainerConfig,
            cluster1_like,
        )
        from repro.models import LogisticRegression
        from repro.optim import Adam

        train, test = tiny_split
        trainer = DistributedTrainer(
            model=LogisticRegression(train.num_features),
            optimizer=Adam(learning_rate=0.05),
            compressor_factory=IdentityCompressor,
            network=cluster1_like(),
            config=TrainerConfig(
                num_workers=2, epochs=2, batch_fraction=1.0, seed=0
            ),
        )
        history = trainer.train(train, test)
        # One round per epoch: each worker sends exactly one message.
        assert history.epochs[0].num_messages == 2
        assert history.test_losses[-1] < history.test_losses[0]

    def test_evaluate_test_disabled(self, tiny_split):
        from repro.compression import IdentityCompressor
        from repro.distributed import (
            DistributedTrainer,
            TrainerConfig,
            cluster1_like,
        )
        from repro.models import LogisticRegression
        from repro.optim import Adam

        train, test = tiny_split
        trainer = DistributedTrainer(
            model=LogisticRegression(train.num_features),
            optimizer=Adam(learning_rate=0.05),
            compressor_factory=IdentityCompressor,
            network=cluster1_like(),
            config=TrainerConfig(
                num_workers=2, epochs=1, seed=0, evaluate_test=False
            ),
        )
        history = trainer.train(train, test)
        assert history.epochs[0].test_loss is None
