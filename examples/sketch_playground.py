"""Tour of the sketch substrates SketchML is built from.

Shows, on streaming data:

* equi-depth quantile buckets: exact splits read off one sort, each
  bucket holding the same number of values (§3.2);
* Count-Min always *over*-estimating frequencies — the one-sidedness
  that makes it unusable for bucket indexes (§3.3);
* MinMaxSketch always *under*-estimating bucket indexes — the opposite
  one-sidedness SGD tolerates.

Run:  python examples/sketch_playground.py
"""

import numpy as np

from repro.core import MinMaxSketch, QuantileBucketQuantizer
from repro.sketch import CountMinSketch

N = 200_000


def quantile_demo(rng) -> None:
    print("== equi-depth buckets on 200k Laplace-distributed values ==")
    values = rng.laplace(scale=0.01, size=N)
    quant = QuantileBucketQuantizer(num_buckets=8).fit(values)
    signs, indexes = quant.encode(values)
    for sign, buckets in ((+1, quant.positive), (-1, quant.negative)):
        counts = np.bincount(indexes[signs == sign], minlength=buckets.num_buckets)
        print(f"  sign {sign:+d}: splits {np.round(buckets.splits, 5).tolist()}")
        print(f"           values per bucket {counts.tolist()}")
    print("  -> equal counts, so buckets are narrow where values are dense\n")


def frequency_vs_minmax_demo(rng) -> None:
    print("== Count-Min overestimates; MinMaxSketch underestimates ==")
    num_keys = 5_000
    keys = np.sort(rng.choice(10**6, size=num_keys, replace=False))
    indexes = rng.integers(0, 128, size=num_keys)

    cm = CountMinSketch(num_rows=2, num_bins=2_000, seed=0)
    for key, idx in zip(keys.tolist(), indexes.tolist()):
        cm.insert(key, count=idx)
    cm_decoded = cm.query_many(keys)

    mm = MinMaxSketch(num_rows=2, num_bins=2_000, index_range=128, seed=0)
    mm.insert_many(keys, indexes)
    mm_decoded = mm.query_many(keys)

    print(f"  Count-Min : {int((cm_decoded > indexes).sum()):>5} overestimates, "
          f"{int((cm_decoded < indexes).sum()):>5} underestimates")
    print(f"  MinMax    : {int((mm_decoded > indexes).sum()):>5} overestimates, "
          f"{int((mm_decoded < indexes).sum()):>5} underestimates")
    print("  -> amplified gradients diverge; decayed gradients just slow down,")
    print("     and Adam's adaptive learning rate compensates (§3.3).\n")


def main() -> None:
    rng = np.random.default_rng(7)
    quantile_demo(rng)
    frequency_vs_minmax_demo(rng)


if __name__ == "__main__":
    main()
