"""Timed micro-benchmarks for the SketchML codec hot path.

The suite exercises the kernels the compressor spends its time in
(quantile fit+encode, MinMaxSketch insert/query, delta-key
encode/decode, payload-v2 key encode/decode) plus the end-to-end
compress/decompress round trip, each over a range of gradient sizes,
and writes the medians to ``BENCH_codec.json`` so perf regressions
show up as a diff.

Run it with::

    python -m repro perf             # full suite (5k / 50k / 200k nnz)
    python -m repro perf --quick     # CI smoke (small sizes, few repeats)

Timings use warmup iterations followed by repeat-median (the median is
robust to scheduler noise in a way a mean is not); throughput is quoted
as MB/s over the raw operand bytes each kernel consumes.
"""

from .harness import BenchResult, time_kernel
from .overhead import MAX_OVERHEAD_FRACTION, OverheadReport, measure_overhead
from .suite import (
    BENCH_FILENAME,
    FULL_SIZES,
    QUICK_SIZES,
    run_suite,
    write_results,
)
from .soak_bench import SOAK_MODES, SoakBenchResult, WorkerSwarm, run_soak_bench
from .wire_bench import WIRE_SCHEMA, run_wire_bench
from .transport_bench import (
    TRANSPORT_PAYLOAD_SIZES,
    TransportBenchResult,
    run_transport_bench,
)

__all__ = [
    "BENCH_FILENAME",
    "BenchResult",
    "FULL_SIZES",
    "MAX_OVERHEAD_FRACTION",
    "OverheadReport",
    "QUICK_SIZES",
    "SOAK_MODES",
    "SoakBenchResult",
    "TRANSPORT_PAYLOAD_SIZES",
    "TransportBenchResult",
    "WIRE_SCHEMA",
    "WorkerSwarm",
    "measure_overhead",
    "run_suite",
    "run_transport_bench",
    "run_soak_bench",
    "run_wire_bench",
    "time_kernel",
    "write_results",
]
