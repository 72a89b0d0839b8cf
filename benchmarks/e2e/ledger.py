"""Summaries of a workload's runs, and the two-ledger comparison.

A ledger row keeps the median, min, max and sample count of each
end-to-end metric over the untraced repeats (with ``n = 3`` no
percentile has ten samples beyond it, so none is reported) and the
single traced run's per-layer values with their own sample counts.
"""

from __future__ import annotations

import json
from typing import Dict, List

from metrics import END_TO_END, PER_LAYER, SETUP_FLOOR_S, EndToEnd, median

__all__ = ["summarise", "print_entry", "compare", "verdict"]

#: same seed, same commit: these repeat bit for bit
EXACT = ("wire_bytes_per_msg", "final_test_loss")


def summarise(runs: List[dict], traced: dict) -> dict:
    """Fold ``R`` untraced runs and one traced run into a ledger entry."""
    failures: List[str] = []
    for run in runs + [traced]:
        failures += run["detail"]["failures"]

    end_to_end: Dict[str, dict] = {}
    for metric in END_TO_END:
        values = [
            run["result"]["metrics"][metric.name]["value"]
            for run in runs if metric.name in run["result"]["metrics"]
        ]
        if not values:
            continue
        end_to_end[metric.name] = {
            "unit": metric.unit, "median": median(values),
            "min": min(values), "max": max(values), "n": len(values),
            "values": values,
        }

    # The repo's fixed-seed contract: every repeat — traced or not —
    # ends on the same model and ships the same bytes.
    digests = {run["detail"].get("theta_sha256") for run in runs + [traced]}
    if len(digests) != 1 or None in digests:
        failures.append(f"theta sha256 differs across repeats: {digests}")
    for name in EXACT:
        seen = {run["detail"]["end_to_end"].get(name)
                for run in runs + [traced]}
        if len(seen) != 1:
            failures.append(f"{name} differs across repeats: {sorted(seen, key=str)}")

    per_layer: Dict[str, dict] = {}
    samples = traced["detail"]["samples"]
    for metric in PER_LAYER:
        shown = traced["result"]["metrics"].get(metric.name)
        if shown is None:
            failures.append(f"traced run emitted no {metric.name}")
            continue
        per_layer[metric.name] = {
            "unit": metric.unit, "value": shown["value"],
            "n": samples.get(metric.name, 1),
        }
    tail = traced["detail"].get("tail_percentile")
    if "trainer.round_ms_tail" in per_layer:
        per_layer["trainer.round_ms_tail"]["percentile"] = tail
    if "trainer.traced_wall_s" in per_layer and "train_wall_s" in end_to_end:
        per_layer["trainer.trace_overhead_share"] = {
            "unit": "ratio", "n": 1,
            "value": per_layer["trainer.traced_wall_s"]["value"]
            / end_to_end["train_wall_s"]["median"] - 1.0,
        }

    attempted = sum(r["result"]["attempted"] for r in runs + [traced])
    failed = sum(r["result"]["failed"] for r in runs + [traced])
    return {
        "epochs": traced["detail"]["epochs"],
        "theta_sha256": str(runs[0]["detail"].get("theta_sha256")),
        "attempted": attempted,
        "failed": failed,
        "failed_round_share": failed / attempted,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "self_seconds": traced["detail"].get("self_seconds", {}),
        "failures": failures,
    }


def print_entry(entry: dict) -> None:
    print(f"  rounds attempted {entry['attempted']}, failed "
          f"{entry['failed']} (failed_round_share "
          f"{entry['failed_round_share']:g}); theta sha256 "
          f"{entry['theta_sha256'][:16]}")
    print(f"  {'end-to-end':38s} {'median':>12s} {'min':>12s} {'max':>12s}"
          f" unit   n")
    for name, row in entry["end_to_end"].items():
        print(f"  {name:38s} {row['median']:12.6g} {row['min']:12.6g}"
              f" {row['max']:12.6g} {row['unit']:6s} {row['n']}")
    if any(row["n"] < 20 for row in entry["end_to_end"].values()):
        print("  (fewer than 20 runs: no percentile has ten samples "
              "beyond it, so only median/min/max are given)")
    print(f"  {'per-layer (traced run)':38s} {'value':>12s} unit   n")
    for name, row in entry["per_layer"].items():
        note = ""
        if "percentile" in row:
            note = (f" p{row['percentile']:g}" if row["percentile"]
                    is not None else " p50 (no tail percentile qualifies)")
        print(f"  {name:38s} {row['value']:12.6g} {row['unit']:6s}"
              f" {row['n']}{note}")
    for failure in entry["failures"]:
        print(f"  CHECK FAILED: {failure}")


# ----------------------------------------------------------------------
def _bound_abs(metric: EndToEnd, med: float) -> float:
    bound = metric.bound * abs(med)
    if metric.name == "setup_s":
        bound = max(bound, SETUP_FLOOR_S)
    return bound


def verdict(metric: EndToEnd, parent: dict, change: dict) -> str:
    """``same / worse / better / unresolved`` for one end-to-end row."""
    for side in (parent, change):
        if side["max"] - side["min"] > _bound_abs(metric, side["median"]):
            return "unresolved"
    gain = parent["median"] - change["median"]
    if metric.better == "higher":
        gain = -gain
    bound = _bound_abs(metric, parent["median"])
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "same"


def compare(parent_path: str, change_path: str) -> int:
    """Print one row per (workload, metric); non-zero exit when any
    end-to-end row is ``worse`` or ``unresolved``."""
    with open(parent_path) as f:
        parent = json.load(f)
    with open(change_path) as f:
        change = json.load(f)
    print(f"parent {parent_path} ({parent.get('git_sha', '?')[:12]})  "
          f"change {change_path} ({change.get('git_sha', '?')[:12]})")
    print(f"{'workload':12s} {'metric':36s} {'parent':>12s} {'change':>12s}"
          f" {'bound':>7s}  verdict")
    counts: Dict[str, int] = {}

    def row(workload, name, a, b, bound, result):
        counts[result] = counts.get(result, 0) + 1
        print(f"{workload:12s} {name:36s} {a:>12} {b:>12} {bound:>7s}"
              f"  {result}")

    for workload, a in parent["workloads"].items():
        b = change["workloads"].get(workload)
        if b is None:
            row(workload, "(workload)", "present", "missing", "-", "worse")
            continue
        for metric in END_TO_END:
            pa, pb = a["end_to_end"].get(metric.name), \
                b["end_to_end"].get(metric.name)
            if pa is None or pb is None:
                row(workload, metric.name, "-", "-", "-", "unresolved")
                continue
            row(workload, metric.name, f"{pa['median']:.6g}",
                f"{pb['median']:.6g}", f"{metric.bound:.0%}",
                verdict(metric, pa, pb))
        row(workload, "failed_round_share", f"{a['failed_round_share']:g}",
            f"{b['failed_round_share']:g}", "0",
            "same" if b["failed_round_share"] <= a["failed_round_share"]
            else "worse")
        row(workload, "theta_sha256", a["theta_sha256"][:12],
            b["theta_sha256"][:12], "exact",
            "same" if a["theta_sha256"] == b["theta_sha256"] else "differs")
        for name in EXACT:
            same = a["end_to_end"][name]["values"] == \
                b["end_to_end"][name]["values"]
            row(workload, f"{name} (bitwise)", "", "", "exact",
                "same" if same else "differs")
        # Layer rows carry no bound: they say where a moved end-to-end
        # number came from, they do not pass or fail.
        for name, la in a["per_layer"].items():
            lb = b["per_layer"].get(name)
            if lb is None:
                continue
            if name == "trainer.rounds":
                result = "same" if la["value"] == lb["value"] else "differs"
            else:
                result = "same" if la["value"] == lb["value"] else "layer"
            row(workload, name, f"{la['value']:.6g}", f"{lb['value']:.6g}",
                "-", result)
    counts.pop("layer", None)
    print("rows: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 1 if counts.get("worse") or counts.get("unresolved") else 0
