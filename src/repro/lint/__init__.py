"""repro lint — AST static analysis for the codec's invariants.

The framework (:mod:`repro.lint.framework`) walks Python sources, runs
every registered :class:`~repro.lint.framework.Rule`, honours
``# repro: noqa[rule-id] — reason`` suppressions (a justification is
mandatory), and reports ``file:line:col`` findings.  The repo-specific
rules live in the ``rules_*`` modules and are registered on import:

========================  =====================================================
rule id                   enforces
========================  =====================================================
``rng-discipline``        no unseeded/global-state RNG or wall-clock calls in
                          library code
``dtype-discipline``      explicit dtypes in the integer/hash-grid modules; no
                          ``float``/``object`` dtype escapes in codec code
``hot-loop``              no Python-level loops over arrays in kernel modules
``wire-format``           byte-format primitives only inside designated
                          serialization modules
``async-discipline``      no blocking calls (socket.recv, time.sleep,
                          queue.Queue ops) inside event-loop modules; the
                          reactor waits only in ``selector.select``
``telemetry-discipline``  hot-path modules use ``repro.telemetry`` instead of
                          ``print``/``logging``; ``telemetry.span`` only as a
                          context manager
``bare-except``           no bare/blanket-swallowed exception handlers
``mutable-default``       no mutable default argument values
``missing-all``           public modules declare ``__all__``
``noqa-justification``    every suppression names a known rule and a reason
========================  =====================================================

A second, *whole-program* tier (``python -m repro lint --deep``) runs
the interprocedural rules from :mod:`repro.analysis` over the project
call graph — same registry, same noqa machinery:

========================  =====================================================
rule id                   enforces (deep tier)
========================  =====================================================
``reactor-reachability``  no blocking primitive transitively reachable from
                          the aio event loop's entry points
``wire-escape``           byte primitives only reachable through the public
                          codec API of the wire modules
``seed-flow``             no unseeded RNG flowing into codec/runtime code
                          (taint analysis)
``lock-order``            no lock-acquisition cycles or lock-held blocking
                          calls in the runtime
========================  =====================================================

Run it as ``python -m repro lint [paths] [--format text|json|sarif]``;
see ``docs/static_analysis.md`` for the full rule and policy reference.
"""

from .framework import (
    Finding,
    LintError,
    ModuleSource,
    ProjectRule,
    Rule,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    all_rule_ids,
    build_rules,
    lint_paths,
    lint_source,
    register_rule,
    rule_descriptions,
)

# Importing the rule modules registers their rules.
from . import rules_async  # noqa: F401  (registration import)
from . import rules_determinism  # noqa: F401  (registration import)
from . import rules_kernels  # noqa: F401  (registration import)
from . import rules_numeric  # noqa: F401  (registration import)
from . import rules_style  # noqa: F401  (registration import)
from . import rules_telemetry  # noqa: F401  (registration import)
from . import rules_wire  # noqa: F401  (registration import)

# The deep (whole-program) rules live in repro.analysis but share this
# registry — importing them here keeps the rule-id vocabulary (noqa
# validation, --select, --list-rules) identical across both tiers.
from ..analysis import rules_flow as _deep_rules_flow  # noqa: F401
from ..analysis import (  # noqa: F401  (registration import)
    rules_reachability as _deep_rules_reachability,
)

__all__ = [
    "Finding",
    "LintError",
    "ModuleSource",
    "ProjectRule",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "all_rule_ids",
    "build_rules",
    "lint_paths",
    "lint_source",
    "register_rule",
    "rule_descriptions",
]
