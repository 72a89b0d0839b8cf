"""Cross-cutting integration tests over the whole stack."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DistributedTrainer,
    IdentityCompressor,
    SketchMLCompressor,
    TrainerConfig,
    ZipMLCompressor,
    cluster1_like,
)
from repro.data import SparseDataset
from repro.models import make_model
from repro.optim import Adam


def random_dataset(seed, rows=600, features=5_000, min_nnz=8, max_nnz=16):
    rng = np.random.default_rng(seed)
    true_theta = rng.normal(size=features)
    row_list, labels = [], []
    for _ in range(rows):
        nnz = int(rng.integers(min_nnz, max_nnz))
        cols = np.sort(rng.choice(features, size=nnz, replace=False))
        vals = rng.normal(size=nnz)
        row_list.append((cols, vals))
        labels.append(1.0 if np.dot(vals, true_theta[cols]) >= 0 else -1.0)
    return SparseDataset.from_rows(row_list, np.asarray(labels), features)


@given(seed=st.integers(min_value=0, max_value=30))
@settings(max_examples=6, deadline=None)
def test_full_stack_property(seed):
    """For random data: training runs, loss is finite and non-worsening,
    bytes ordering SketchML < ZipML < Adam holds (at message sizes where
    fixed codec overheads don't dominate), determinism holds."""
    dataset = random_dataset(seed)
    results = {}
    for name, factory in (
        ("adam", IdentityCompressor),
        ("zipml", ZipMLCompressor),
        ("sketchml", SketchMLCompressor),
    ):
        model = make_model("lr", dataset.num_features, reg_lambda=0.01)
        trainer = DistributedTrainer(
            model=model,
            optimizer=Adam(learning_rate=0.02),
            compressor_factory=factory,
            network=cluster1_like(),
            config=TrainerConfig(
                num_workers=3, epochs=2, seed=seed, batch_fraction=0.5
            ),
        )
        results[name] = trainer.train(dataset, dataset)
    for history in results.values():
        assert all(np.isfinite(loss) for loss in history.test_losses)
        assert history.test_losses[-1] <= history.test_losses[0] * 1.05
    assert (
        results["sketchml"].total_bytes_sent
        < results["zipml"].total_bytes_sent
        < results["adam"].total_bytes_sent
    )


def test_wire_and_memory_pipelines_agree_in_training():
    """Training through real serialised bytes (``mp`` workers) must match
    the in-memory pipeline exactly (same decoded gradients → same
    model), and the in-memory byte count is the byte count shipped."""
    dataset = random_dataset(99, rows=90)
    histories = {}
    for backend in ("sim", "mp"):
        model = make_model("lr", dataset.num_features, reg_lambda=0.01)
        trainer = DistributedTrainer(
            model=model,
            optimizer=Adam(learning_rate=0.02),
            compressor_factory=SketchMLCompressor,
            network=cluster1_like(),
            config=TrainerConfig(
                num_workers=3, epochs=2, seed=1, backend=backend
            ),
        )
        histories[backend] = trainer.train(dataset, dataset)
    assert histories["sim"].test_losses == histories["mp"].test_losses
    assert histories["sim"].total_bytes_sent == histories["mp"].total_bytes_sent
