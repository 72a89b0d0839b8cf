"""repro — a full reproduction of SketchML (SIGMOD 2018).

SketchML compresses the sparse key–value gradients exchanged by
distributed SGD with three components: quantile-bucket quantification
of values, a novel MinMaxSketch over the bucket indexes, and lossless
delta-binary encoding of keys.  This package implements the complete
system plus every substrate the paper's evaluation depends on:

* :mod:`repro.core` — the SketchML compressor and its components;
* :mod:`repro.sketch` — hashing and frequency (Count-Min, Count
  Sketch) sketch substrates, built from scratch (the bucket fit reads
  exact quantiles off the encoder's sort, so no quantile sketch);
* :mod:`repro.compression` — baseline codecs (Adam/identity, ZipML,
  1-bit SGD, top-k, float16, lossless key codecs);
* :mod:`repro.data` — sparse structures, synthetic dataset generators
  calibrated to KDD10/KDD12/CTR, LIBSVM I/O;
* :mod:`repro.models` / :mod:`repro.optim` — LR, SVM, Linear, MLP and
  sparse SGD/Momentum/AdaGrad/Adam;
* :mod:`repro.distributed` — the simulated cluster (workers, driver,
  network cost model, synchronous trainer);
* :mod:`repro.bench` — harness regenerating every table and figure.

Quickstart::

    from repro import (SketchMLCompressor, DistributedTrainer,
                       TrainerConfig, cluster1_like)
    from repro.data import kdd10_like, train_test_split
    from repro.models import LogisticRegression
    from repro.optim import Adam

    data = kdd10_like()
    train, test = train_test_split(data)
    trainer = DistributedTrainer(
        model=LogisticRegression(data.num_features),
        optimizer=Adam(learning_rate=0.1),
        compressor_factory=SketchMLCompressor,
        network=cluster1_like(),
        config=TrainerConfig(num_workers=10, epochs=5),
    )
    history = trainer.train(train, test)
    print(history.avg_epoch_seconds, history.avg_compression_rate)
"""

from .compression import (
    CompressedGradient,
    ErrorFeedbackCompressor,
    GradientCompressor,
    HeavyHitterSketchMLCompressor,
    IdentityCompressor,
    OneBitCompressor,
    QSGDCompressor,
    TopKCompressor,
    ZipMLCompressor,
    available_compressors,
    make_compressor,
)
from .core import (
    GroupedMinMaxSketch,
    MinMaxSketch,
    QuantileBucketQuantizer,
    SketchMLCompressor,
    SketchMLConfig,
    decode_keys,
    encode_keys,
)
from .distributed import (
    DistributedTrainer,
    LocalSGDConfig,
    LocalSGDTrainer,
    SSPConfig,
    SSPTrainer,
    TrainerConfig,
    TrainingHistory,
    cluster1_like,
    cluster2_like,
    wan_like,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SketchMLCompressor",
    "SketchMLConfig",
    "QuantileBucketQuantizer",
    "MinMaxSketch",
    "GroupedMinMaxSketch",
    "encode_keys",
    "decode_keys",
    "CompressedGradient",
    "GradientCompressor",
    "IdentityCompressor",
    "ZipMLCompressor",
    "OneBitCompressor",
    "TopKCompressor",
    "QSGDCompressor",
    "HeavyHitterSketchMLCompressor",
    "ErrorFeedbackCompressor",
    "make_compressor",
    "available_compressors",
    "DistributedTrainer",
    "TrainerConfig",
    "SSPTrainer",
    "SSPConfig",
    "LocalSGDTrainer",
    "LocalSGDConfig",
    "TrainingHistory",
    "cluster1_like",
    "cluster2_like",
    "wan_like",
]
