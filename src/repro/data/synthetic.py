"""Synthetic sparse datasets calibrated to the paper's workloads.

The paper trains on KDD CUP 2010, KDD CUP 2012, and a proprietary
Tencent CTR dataset (Table 1).  None of those is shippable here, so we
generate laptop-scale equivalents that preserve the two properties every
experiment depends on:

* **Sparsity** — high-dimensional rows with few nonzeros, feature
  popularity following a power law (a handful of very common features,
  a long tail of rare ones).  This is what makes gradients sparse and
  makes delta-binary keys cheap (popular features cluster at low ids).
* **Nonuniform gradient values** — with power-law features and
  label noise, per-batch gradients concentrate near zero with heavy
  tails, reproducing Figure 4.

Each ``*_like`` profile scales the real dataset's (N, D, nnz/row) down
by a constant factor while keeping density ratios: KDD12-like is
sparser than CTR-like, as §4.3.2 relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import SparseDataset

__all__ = [
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
]


@dataclass(frozen=True)
class SyntheticProfile:
    """Recipe for a synthetic sparse dataset.

    Attributes:
        name: profile label used in benchmark output.
        num_rows: instances ``N``.
        num_features: model dimension ``D``.
        avg_nnz_per_row: mean nonzeros per instance.
        zipf_exponent: power-law exponent of feature popularity
            (closer to 1 → heavier head, gradients more nonuniform).
        task: ``"classification"`` (labels in {-1, +1}) or
            ``"regression"`` (continuous labels).
        label_noise: flip probability (classification) or Gaussian noise
            scale (regression).
    """

    name: str
    num_rows: int
    num_features: int
    avg_nnz_per_row: float
    zipf_exponent: float = 1.1
    task: str = "classification"
    label_noise: float = 0.05


#: KDD CUP 2010 (19M × 29M, ~35 nnz/row) scaled to laptop size.
KDD10_LIKE = SyntheticProfile(
    name="kdd10-like",
    num_rows=12_000,
    num_features=200_000,
    avg_nnz_per_row=35.0,
)

#: KDD CUP 2012 (149M × 54M) — sparser than CTR, bigger than KDD10.
KDD12_LIKE = SyntheticProfile(
    name="kdd12-like",
    num_rows=16_000,
    num_features=400_000,
    avg_nnz_per_row=30.0,
)

#: Tencent CTR (300M × 58M, denser rows): "KDD12 is sparser than CTR".
#: The density gap is exaggerated relative to the raw row counts so the
#: paper's consequence — CTR batches dedup more, making the workload
#: relatively computation-bound and the compression speedup smaller
#: (§4.3.2) — survives the ~10³× downscaling.
CTR_LIKE = SyntheticProfile(
    name="ctr-like",
    num_rows=12_000,
    num_features=60_000,
    avg_nnz_per_row=320.0,
    zipf_exponent=1.3,
)

#: KDD12 variant with a hotter feature head (zipf 1.6).  At the paper's
#: data scale every worker's batch touches all frequent features, so
#: per-worker message sizes *saturate* and total gather volume grows
#: with the worker count — the regime behind Adam's deterioration at 50
#: workers in Fig. 11.  The laptop-scale default profile (zipf 1.1)
#: never reaches saturation, so the scalability bench uses this one.
KDD12_HOTHEAD = SyntheticProfile(
    name="kdd12-hothead",
    num_rows=16_000,
    num_features=400_000,
    avg_nnz_per_row=30.0,
    zipf_exponent=1.6,
)


def _feature_popularity(profile: SyntheticProfile) -> np.ndarray:
    """Zipf-style sampling weights over feature ids."""
    ranks = np.arange(1, profile.num_features + 1, dtype=np.float64)
    weights = ranks ** (-profile.zipf_exponent)
    return weights / weights.sum()


#: rows per block of :func:`_dedupe_rows`' sort, bounding its transient
#: arrays to a few MiB
_DEDUPE_BLOCK_ROWS = 2048


def _dedupe_rows(row_nnz, sampled, values, num_features):
    """CSR rows of the sampled ``(column, value)`` pairs, ``row_nnz``
    pairs per row, keeping each column's first occurrence in its row
    and sorting each row's columns.

    One stable sort of ``row * num_features + column`` per block of
    rows; equal to ``np.unique(cols, return_index=True)`` row by row.
    """
    num_rows = row_nnz.size
    ends = np.cumsum(row_nnz)
    counts = np.zeros(num_rows, dtype=np.int64)
    indices_chunks = []
    data_chunks = []
    for lo in range(0, num_rows, _DEDUPE_BLOCK_ROWS):
        hi = min(lo + _DEDUPE_BLOCK_ROWS, num_rows)
        start = int(ends[lo - 1]) if lo else 0
        stop = int(ends[hi - 1])
        rows = np.repeat(np.arange(hi - lo, dtype=np.int64), row_nnz[lo:hi])
        order = np.argsort(
            rows * num_features + sampled[start:stop], kind="stable"
        )
        cols = sampled[start:stop][order]
        rows = rows[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (cols[1:] != cols[:-1]) | (rows[1:] != rows[:-1])
        indices_chunks.append(cols[first])
        data_chunks.append(values[start:stop][order[first]])
        counts[lo:hi] = np.bincount(rows[first], minlength=hi - lo)
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, np.concatenate(indices_chunks), np.concatenate(data_chunks)


def generate_dataset(
    profile: SyntheticProfile, seed: int = 0, scale: float = 1.0
) -> SparseDataset:
    """Generate a :class:`SparseDataset` from a profile.

    Args:
        profile: the dataset recipe.
        seed: PRNG seed; the same (profile, seed, scale) always yields
            the same dataset.
        scale: multiplier on ``num_rows`` for quick smoke runs
            (``scale=0.1`` → a tenth of the rows).

    The generator draws a sparse ground-truth model, samples each row's
    features from the Zipf popularity law, draws feature values from a
    log-normal (mimicking count-like features), and labels rows from
    the ground-truth score plus noise.
    """
    rng = np.random.default_rng(seed)
    num_rows = max(1, int(round(profile.num_rows * scale)))
    popularity = _feature_popularity(profile)

    # Sparse ground-truth model over the popular head + random tail.
    true_support_size = max(10, profile.num_features // 100)
    head = np.arange(min(true_support_size // 2, profile.num_features))
    tail = rng.choice(
        profile.num_features, size=true_support_size - head.size, replace=False
    )
    support = np.unique(np.concatenate([head, tail]))
    true_theta = np.zeros(profile.num_features)
    true_theta[support] = rng.normal(scale=1.0, size=support.size)

    row_nnz = rng.poisson(profile.avg_nnz_per_row, size=num_rows)
    row_nnz = np.clip(row_nnz, 1, profile.num_features)
    total_nnz = int(row_nnz.sum())
    # Sample all features at once, then dedupe within each row.
    sampled = rng.choice(profile.num_features, size=total_nnz, p=popularity)
    values = rng.lognormal(mean=0.0, sigma=0.5, size=total_nnz)

    indptr, indices, data = _dedupe_rows(
        row_nnz, sampled, values, profile.num_features
    )

    # Normalise rows so scores stay O(1) regardless of nnz.
    scores = np.zeros(num_rows)
    for i in range(num_rows):
        start, end = indptr[i], indptr[i + 1]
        norm = np.linalg.norm(data[start:end])
        if norm > 0:
            data[start:end] /= norm
        scores[i] = float(
            np.dot(data[start:end], true_theta[indices[start:end]])
        )

    if profile.task == "classification":
        labels = np.where(scores + rng.normal(scale=0.1, size=num_rows) >= 0, 1.0, -1.0)
        flips = rng.random(num_rows) < profile.label_noise
        labels[flips] *= -1
    elif profile.task == "regression":
        labels = scores + rng.normal(scale=profile.label_noise, size=num_rows)
    else:
        raise ValueError(f"unknown task {profile.task!r}")

    return SparseDataset(indptr, indices, data, labels, profile.num_features)


def generate_profile(name: str, seed: int = 0, scale: float = 1.0) -> SparseDataset:
    """Generate a dataset by profile name (``kdd10`` / ``kdd12`` / ``ctr``)."""
    profiles = {
        "kdd10": KDD10_LIKE,
        "kdd12": KDD12_LIKE,
        "ctr": CTR_LIKE,
        "kdd12-hothead": KDD12_HOTHEAD,
    }
    try:
        profile = profiles[name]
    except KeyError:
        raise ValueError(
            f"unknown profile {name!r}; choose from {sorted(profiles)}"
        ) from None
    return generate_dataset(profile, seed=seed, scale=scale)


def kdd10_like(seed: int = 0, scale: float = 1.0) -> SparseDataset:
    """KDD CUP 2010 stand-in (see :data:`KDD10_LIKE`)."""
    return generate_dataset(KDD10_LIKE, seed=seed, scale=scale)


def kdd12_like(seed: int = 0, scale: float = 1.0) -> SparseDataset:
    """KDD CUP 2012 stand-in (see :data:`KDD12_LIKE`)."""
    return generate_dataset(KDD12_LIKE, seed=seed, scale=scale)


def ctr_like(seed: int = 0, scale: float = 1.0) -> SparseDataset:
    """Tencent CTR stand-in (see :data:`CTR_LIKE`)."""
    return generate_dataset(CTR_LIKE, seed=seed, scale=scale)


def mnist_like(
    num_train: int = 2_000,
    num_classes: int = 10,
    image_size: int = 20,
    seed: int = 0,
) -> "tuple[np.ndarray, np.ndarray]":
    """Synthetic MNIST stand-in for the Appendix B.3 MLP experiment.

    Generates ``num_classes`` random smooth templates over a
    ``image_size × image_size`` grid and draws instances as
    template + pixel noise, giving a learnable 10-class problem with
    dense 400-dim inputs (matching the paper's 20×20 input layer).

    Returns:
        ``(images, labels)`` — float64 array of shape
        ``(num_train, image_size**2)`` scaled to [0, 1], and int labels.
    """
    rng = np.random.default_rng(seed)
    dim = image_size * image_size
    # Smooth templates: low-frequency random fields.
    coarse = rng.normal(size=(num_classes, image_size // 4 + 1, image_size // 4 + 1))
    templates = np.empty((num_classes, dim))
    for c in range(num_classes):
        upsampled = np.kron(coarse[c], np.ones((4, 4)))[:image_size, :image_size]
        templates[c] = upsampled.ravel()
    templates = (templates - templates.min()) / (templates.max() - templates.min())
    labels = rng.integers(0, num_classes, size=num_train)
    images = templates[labels] + rng.normal(scale=0.3, size=(num_train, dim))
    images = np.clip(images, 0.0, 1.0)
    return images, labels
