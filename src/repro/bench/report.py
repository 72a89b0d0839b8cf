"""Consolidated reproduction report from the archived bench results.

After ``pytest benchmarks/ --benchmark-only`` has populated
``benchmarks/results/``, this module stitches every archived table and
series into a single markdown report (``REPORT.md`` by default) in the
paper's figure order — the one-file artifact a reviewer reads.

Usable as a library (:func:`build_report`) or via
``python -m repro report``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

__all__ = ["RESULT_ORDER", "build_report", "write_report"]

#: Hand-maintained history of the codec hot-path speed at 50k nnz
#: (end-to-end compress, best-of-rounds median on the reference
#: container, alternating-order A/B against the older tree).
CODEC_PERF_TRAJECTORY: Tuple[Tuple[str, str, str], ...] = (
    ("scalar baseline", "26.1 ms", "per-element Python loops in every kernel"),
    (
        "vectorised codec kernels",
        "6.0 ms",
        "batch quantile fit+encode, fused hash grid, scatter-min insert, "
        "single-pass delta key codec (4.3x; 3.8x at 5k, 4.1x at 200k)",
    ),
)

#: (result file stem, section heading) in the paper's presentation order.
RESULT_ORDER: Tuple[Tuple[str, str], ...] = (
    ("fig4_gradient_distribution", "Figure 4 — nonuniform gradient values"),
    ("fig8a_ablation_runtime", "Figure 8(a) — component ablation, epoch time"),
    ("fig8b_message_size", "Figure 8(b) — message size & compression rate"),
    ("fig8c_cpu_overhead", "Figure 8(c) — CPU overhead of compression"),
    ("fig8d_batch_sparsity", "Figure 8(d) — batch size & sparsity"),
    ("fig9_end_to_end_runtime", "Figure 9 — end-to-end run time per epoch"),
    ("fig10_convergence", "Figure 10 — loss vs wall-clock"),
    ("table2_model_accuracy", "Table 2 — converged loss / time"),
    ("fig11_scalability", "Figure 11 — scalability over workers"),
    ("fig12_single_node", "Figure 12 — vs a single-node system"),
    ("fig13_table3_sensitivity", "Figure 13 / Table 3 — sensitivity"),
    ("fig14_neural_net", "Figure 14 — neural network"),
    ("table4_weight_types", "Table 4 — weight types"),
    ("appendix_key_encoding", "§3.4 / A.3 — key codecs"),
    ("appendix_theory_bounds", "Appendix A — theory bounds"),
    ("ablation_minmax_vs_countmin", "Ablation — MinMax vs additive Count-Min"),
    ("ablation_sign_separation", "Ablation — pos/neg separation"),
    ("ablation_grouping", "Ablation — grouped sketches"),
    ("ablation_adam_vs_sgd", "Ablation — Adam vs SGD under decay"),
    ("extension_hybrid", "Extension — heavy-hitter hybrid"),
    ("extension_qsgd_variance", "Extension — quantile vs QSGD variance"),
    ("extension_ssp", "Extension — SSP parameter server"),
    ("extension_local_sgd", "Extension — Local SGD comparison"),
    ("extension_compensation", "Extension — decay compensation"),
    ("fleet_replay", "Fleet replay — trace-driven scaled fleets"),
)


def build_report(
    results_dir: str, trace: Optional[str] = None
) -> Tuple[str, List[str]]:
    """Assemble the report text from a results directory.

    With ``trace`` (a merged flight recording), a per-epoch
    critical-path attribution section is appended — where the wall
    time of the recorded run actually went.

    Returns:
        ``(markdown, missing)`` — the report body and the list of
        expected result stems that had no file yet.
    """
    sections: List[str] = [
        "# SketchML reproduction — consolidated results",
        "",
        "Generated from `benchmarks/results/` (run "
        "`pytest benchmarks/ --benchmark-only` to refresh). "
        "Shape commentary and paper-vs-measured tables live in "
        "EXPERIMENTS.md.",
        "",
    ]
    missing: List[str] = []
    extras: Dict[str, str] = {}
    if os.path.isdir(results_dir):
        extras = {
            fname[:-4]: os.path.join(results_dir, fname)
            for fname in sorted(os.listdir(results_dir))
            if fname.endswith(".txt")
        }
    for stem, heading in RESULT_ORDER:
        path = extras.pop(stem, None)
        sections.append(f"## {heading}")
        sections.append("")
        if path is None:
            missing.append(stem)
            sections.append("*(no archived result — bench not run yet)*")
        else:
            with open(path, "r", encoding="utf-8") as handle:
                sections.append("```")
                sections.append(handle.read().rstrip())
                sections.append("```")
        sections.append("")
    for stem, path in extras.items():
        sections.append(f"## {stem}")
        sections.append("")
        with open(path, "r", encoding="utf-8") as handle:
            sections.append("```")
            sections.append(handle.read().rstrip())
            sections.append("```")
        sections.append("")
    sections.extend(_codec_perf_section(results_dir))
    sections.extend(_soak_section(results_dir))
    if trace is not None:
        sections.extend(_critical_path_section(trace))
    return "\n".join(sections), missing


def _bench_json(results_dir: str) -> Dict[str, dict]:
    """The committed ``BENCH_codec.json`` kernel map (empty if absent)."""
    bench_path = os.path.join(
        os.path.dirname(os.path.abspath(results_dir.rstrip(os.sep))) or ".",
        os.pardir,
        "BENCH_codec.json",
    )
    if not os.path.isfile(bench_path):
        return {}
    with open(bench_path, "r", encoding="utf-8") as handle:
        return json.load(handle).get("kernels", {})


def _codec_perf_section(results_dir: str) -> List[str]:
    """Codec hot-path trajectory + the committed kernel baseline."""
    lines = [
        "## Codec performance trajectory",
        "",
        "End-to-end `SketchMLCompressor.compress` on a 50k-nnz synthetic "
        "gradient (`python -m repro perf` measures it; see DESIGN.md §6 "
        "for the kernel inventory):",
        "",
    ]
    for label, timing, note in CODEC_PERF_TRAJECTORY:
        lines.append(f"* **{label}** — {timing}: {note}")
    lines.append("")
    kernels = {
        name: entry
        for name, entry in _bench_json(results_dir).items()
        if not name.startswith(("soak/", "transport_echo/"))
    }
    if kernels:
        lines.append("Committed kernel baseline (`BENCH_codec.json`):")
        lines.append("")
        lines.append("```")
        lines.append(f"{'kernel':<24}{'median ms':>10}  {'ns/elem':>8}  {'MB/s':>8}")
        for name in sorted(kernels):
            entry = kernels[name]
            lines.append(
                f"{name:<24}{entry['median_ms']:>10.3f}  "
                f"{entry['ns_per_element']:>8.1f}  {entry['mb_per_s']:>8.1f}"
            )
        lines.append("```")
        lines.append("")
    return lines


def _soak_section(results_dir: str) -> List[str]:
    """High-concurrency gather soak from the committed benchmark file.

    Renders the ``soak/{mode}/w{N}`` rows that ``python -m repro perf
    --soak`` records: messages/s with p50/p99 per-message latency for
    the ``aio`` backend's barrier and overlapped-decode modes, plus
    throughput ratios against the ``aio`` barrier at every worker count.
    """
    from ..perf.soak_bench import SOAK_MODES

    soak: Dict[int, Dict[str, dict]] = {}
    for name, entry in _bench_json(results_dir).items():
        if not name.startswith("soak/"):
            continue
        _, mode, workers = name.split("/")
        soak.setdefault(int(workers[1:]), {})[mode] = entry
    if not soak:
        return []
    lines = [
        "## High-concurrency gather soak",
        "",
        "`python -m repro perf --soak`: one service thread simulates "
        "hundreds of workers over real TCP sockets (seeded ~2 ms service "
        "delays, 1 % straggler stalls of 0.3–0.6 s); the driver gathers "
        "one serialized gradient message per worker per round and "
        "decodes every reply. `aio` is the barrier baseline, serviced "
        "in arrival order on the event loop; `aio-overlap` drops the "
        "barrier and re-arms each worker as soon as its reply decodes, "
        "so one straggler stalls one pipeline instead of all of them.",
        "",
        "```",
        f"{'cell':<22}{'msg/s':>9}  {'p50 ms':>8}  {'p99 ms':>8}  {'vs aio':>7}",
    ]
    for workers in sorted(soak):
        modes = soak[workers]
        baseline = modes.get(SOAK_MODES[0], {}).get("messages_per_s", 0.0)
        for mode in SOAK_MODES:
            entry = modes.get(mode)
            if entry is None:
                continue
            ratio = (
                f"{entry['messages_per_s'] / baseline:>6.2f}x"
                if baseline
                else f"{'—':>7}"
            )
            lines.append(
                f"{f'soak/{mode}/w{workers}':<22}"
                f"{entry['messages_per_s']:>9.1f}  {entry['p50_ms']:>8.1f}  "
                f"{entry['p99_ms']:>8.1f}  {ratio}"
            )
    lines.extend(["```", ""])
    return lines


def _critical_path_section(trace_path: str) -> List[str]:
    """Per-epoch critical-path attribution from a flight recording.

    Renders where each recorded epoch's wall time went
    (codec / compute / straggler wait / wire) using the live-ops
    causal DAG; a pre-ops trace (no span ids) degrades to a note
    instead of failing the whole report.
    """
    from ..telemetry.critical_path import critical_path, render_report
    from ..telemetry.merge import read_trace

    lines = [
        "## Critical path — where the recorded run's time went",
        "",
        f"From the flight recording `{trace_path}` "
        "(`repro trace <file> --critical-path` reproduces it):",
        "",
    ]
    try:
        report = critical_path(read_trace(trace_path))
    except (OSError, ValueError) as exc:
        lines.append(f"*(no attribution: {exc})*")
        lines.append("")
        return lines
    lines.append("```")
    lines.append(render_report(report))
    lines.append("```")
    lines.append("")
    return lines


def write_report(
    results_dir: str,
    out_path: Optional[str] = None,
    trace: Optional[str] = None,
) -> Tuple[str, List[str]]:
    """Build and write the report; returns ``(out_path, missing)``."""
    out_path = out_path or os.path.join(
        os.path.dirname(results_dir.rstrip(os.sep)) or ".", "REPORT.md"
    )
    markdown, missing = build_report(results_dir, trace=trace)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(markdown)
        if not markdown.endswith("\n"):
            handle.write("\n")
    return out_path, missing
