"""repro lint — AST static analysis for the codec's invariants.

The framework (:mod:`repro.lint.framework`) reads and parses each
Python source once, runs every registered
:class:`~repro.lint.framework.Rule`, honours ``# repro: noqa[rule-id] —
reason`` suppressions (a justification is mandatory), and reports
``file:line:col`` findings.  Rules marked *deep* below also inspect the
whole-program call graph (:mod:`repro.lint.callgraph`, with the
dataflow engine of :mod:`repro.lint.dataflow`); ``--deep`` selects
those call-graph checks, the per-module checks run on every run:

========================  =====  ===========================================
rule id                   deep   enforces
========================  =====  ===========================================
``rng-discipline``               no unseeded/global-state RNG or wall-clock
                                 calls in library code
``dtype-discipline``             explicit dtypes in the integer/hash-grid
                                 modules; no ``float``/``object`` dtype
                                 escapes in codec code
``hot-loop``                     no Python-level loops over arrays in
                                 kernel modules
``wire-format``           also   byte-format primitives only inside
                                 designated serialization modules; deep:
                                 nor through helpers that reach them or
                                 private wire helpers
``wire-endianness``              multi-byte dtypes in wire modules pin
                                 little-endian byte order
``async-discipline``      also   no blocking calls (socket.recv,
                                 time.sleep, queue.Queue ops, subprocess
                                 waits) in event-loop modules; deep: nor
                                 anywhere the reactor reaches
``telemetry-discipline``         hot-path modules use ``repro.telemetry``
                                 instead of ``print``/``logging``;
                                 ``telemetry.span`` only as a context
                                 manager
``seed-flow``             only   no unseeded RNG flowing into
                                 codec/runtime code (taint analysis)
``lock-order``            only   no lock-acquisition cycles or lock-held
                                 blocking calls in the runtime
``bare-except``                  no bare/blanket-swallowed exception
                                 handlers
``mutable-default``              no mutable default argument values
``missing-all``                  public modules declare ``__all__``
``noqa-justification``           every suppression names a known rule and
                                 a reason
========================  =====  ===========================================

Run it as ``python -m repro lint [--deep] [paths] [--format
text|json|sarif]``; see ``docs/static_analysis.md`` for the full rule
and policy reference.
"""

from .framework import (
    Finding,
    LintError,
    ModuleSource,
    Rule,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    all_rule_ids,
    build_rules,
    lint_paths,
    lint_source,
    lint_tree,
    register_rule,
    rule_descriptions,
)

# Importing the rule modules registers their rules.
from . import rules_determinism  # noqa: F401  (registration import)
from . import rules_flow  # noqa: F401  (registration import)
from . import rules_kernels  # noqa: F401  (registration import)
from . import rules_numeric  # noqa: F401  (registration import)
from . import rules_reachability  # noqa: F401  (registration import)
from . import rules_style  # noqa: F401  (registration import)
from . import rules_telemetry  # noqa: F401  (registration import)
from . import rules_wire  # noqa: F401  (registration import)

__all__ = [
    "Finding",
    "LintError",
    "ModuleSource",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "all_rule_ids",
    "build_rules",
    "lint_paths",
    "lint_source",
    "lint_tree",
    "register_rule",
    "rule_descriptions",
]
