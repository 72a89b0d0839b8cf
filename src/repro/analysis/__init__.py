"""Analysis utilities: gradient/compressor analytics and the deep
static-analysis tier.

Two families share this package:

* **Data analytics** — gradient profiling, dataset statistics, and
  the compressor comparison used by the experiment harness.
* **Whole-program static analysis** — the interprocedural tier behind
  ``python -m repro lint --deep``: a project call graph
  (:mod:`~repro.analysis.callgraph`), a forward dataflow engine
  (:mod:`~repro.analysis.dataflow`), the reachability/flow rules
  (``reactor-reachability``, ``wire-escape``, ``seed-flow``,
  ``lock-order``), the findings baseline, and the SARIF emitter.
  Importing this package registers the deep rules into the shared
  lint registry.
"""

from .compression_report import (
    CompressorReportRow,
    compare_compressors,
    format_report,
)
from .dataset_stats import DatasetStats, dataset_stats
from .gradient_stats import GradientProfile, histogram, profile_gradient

from .callgraph import (
    BlindSpot,
    CallSite,
    ClassInfo,
    FunctionNode,
    Project,
    build_project,
    build_project_from_sources,
    module_name_for_relpath,
)
from .dataflow import CFG, BasicBlock, ForwardAnalysis, build_cfg
from .driver import DeepStats, analyze_paths, deep_rules
from .baseline import (
    baseline_key,
    load_baseline,
    subtract_baseline,
    write_baseline,
)
from .sarif import render_sarif, to_sarif

# Importing the rule modules registers the deep rules.
from . import rules_flow  # noqa: F401  (registration import)
from . import rules_reachability  # noqa: F401  (registration import)

__all__ = [
    "GradientProfile",
    "profile_gradient",
    "histogram",
    "CompressorReportRow",
    "compare_compressors",
    "format_report",
    "DatasetStats",
    "dataset_stats",
    "BlindSpot",
    "CallSite",
    "ClassInfo",
    "FunctionNode",
    "Project",
    "build_project",
    "build_project_from_sources",
    "module_name_for_relpath",
    "CFG",
    "BasicBlock",
    "ForwardAnalysis",
    "build_cfg",
    "DeepStats",
    "analyze_paths",
    "deep_rules",
    "baseline_key",
    "load_baseline",
    "subtract_baseline",
    "write_baseline",
    "render_sarif",
    "to_sarif",
]
