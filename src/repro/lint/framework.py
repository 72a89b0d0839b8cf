"""Rule registry, module model, noqa handling, and the lint driver.

Design:

* A :class:`Rule` inspects one :class:`ModuleSource` (parsed AST plus
  precomputed import tables and the package-relative path) and yields
  :class:`Finding` records; a rule with ``uses_call_graph`` also
  inspects the whole-program call graph (:mod:`repro.lint.callgraph`)
  when the run is ``deep``.
* One driver (:func:`lint_tree`) parses each file once, runs the
  module checks, builds the call graph from the same modules when a
  selected rule needs it, and applies one suppression pass to every
  finding.
* Rules self-register via :func:`register_rule`; ids are stable strings
  (``hot-loop``, ``rng-discipline``, ...) that double as the noqa
  keys and the ``--select`` vocabulary.
* Suppressions are per-line comments::

      risky_line()  # repro: noqa[rule-id] — why this is safe

  The justification after the dash is **mandatory**; a reasonless or
  unknown-rule noqa is itself a finding (``noqa-justification``), so
  suppressions cannot silently rot.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

__all__ = [
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "Finding",
    "LintError",
    "Suppression",
    "ModuleSource",
    "Rule",
    "register_rule",
    "all_rule_ids",
    "build_rules",
    "lint_source",
    "lint_paths",
    "lint_tree",
    "iter_python_files",
    "dotted_name",
]

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Rule id reserved for the framework's own noqa policing.
NOQA_RULE_ID = "noqa-justification"
#: Rule id reported for files that fail to parse.
SYNTAX_RULE_ID = "syntax-error"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\s*\[(?P<rules>[^\]]*)\]\s*(?:(?:—|--|-|:)\s*(?P<reason>.*))?$"
)


class LintError(RuntimeError):
    """Unrecoverable driver failure (unknown rule selection, bad path)."""


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to ``path:line:col``."""

    rule_id: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro: noqa[...]`` comment."""

    line: int
    rule_ids: Tuple[str, ...]
    reason: str


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ModuleSource:
    """One parsed Python module plus everything rules need to scope it.

    Attributes:
        path: filesystem path (or ``<memory>`` for fixture snippets).
        relpath: posix path relative to the ``repro`` package root
            (e.g. ``core/minmax_sketch.py``) — the key the policy
            scopes match against.
        text: raw source.
        tree: the parsed :mod:`ast` module node.
        import_aliases: local name -> imported module for ``import m``
            and ``import m as alias`` statements.
        from_imports: local name -> ``(module, original_name)`` for
            ``from m import n [as alias]`` statements.
        suppressions: line number -> :class:`Suppression`.
    """

    def __init__(self, path: str, text: str, relpath: Optional[str] = None) -> None:
        self.path = path
        self.text = text
        self.relpath = relpath if relpath is not None else _infer_relpath(path)
        self.tree = ast.parse(text, filename=path)
        self.import_aliases: Dict[str, str] = {}
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.import_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        module,
                        alias.name,
                    )
        self.suppressions, self.noqa_findings = _parse_noqa(text, self.path)

    # ------------------------------------------------------------------
    def resolve_call(self, node: ast.Call) -> Optional[str]:
        """Canonical dotted name of a call target, import-aliases resolved.

        ``np.random.rand(...)`` resolves to ``numpy.random.rand`` when
        the module did ``import numpy as np``; a bare call to a
        ``from m import n`` name resolves to ``m.n``.
        """
        name = dotted_name(node.func)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        if head in self.import_aliases:
            full = self.import_aliases[head]
            return f"{full}.{rest}" if rest else full
        if head in self.from_imports:
            module, original = self.from_imports[head]
            base = f"{module}.{original}" if module else original
            return f"{base}.{rest}" if rest else base
        return name


def _infer_relpath(path: str) -> str:
    """Path relative to the innermost ``repro`` package directory."""
    parts = path.replace(os.sep, "/").split("/")
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        rel = "/".join(parts[idx + 1:])
        if rel:
            return rel
    return parts[-1]


def _parse_noqa(
    text: str, path: str
) -> Tuple[Dict[int, Suppression], List[Finding]]:
    """Extract suppression comments and policy findings for them.

    Unknown-rule validation happens later in :func:`_apply_suppressions`
    (the registry may not be fully populated at parse time).
    """
    suppressions: Dict[int, Suppression] = {}
    findings: List[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - parse gate
        return suppressions, findings
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(tok.string)
        if match is None:
            continue
        line = tok.start[0]
        rule_ids = tuple(
            r.strip() for r in match.group("rules").split(",") if r.strip()
        )
        reason = (match.group("reason") or "").strip()
        if not rule_ids:
            findings.append(
                Finding(
                    NOQA_RULE_ID, SEVERITY_ERROR, path, line, tok.start[1],
                    "noqa must name at least one rule id: "
                    "`# repro: noqa[rule-id] — reason`",
                )
            )
            continue
        if not reason:
            findings.append(
                Finding(
                    NOQA_RULE_ID, SEVERITY_ERROR, path, line, tok.start[1],
                    f"noqa[{', '.join(rule_ids)}] lacks a justification; "
                    "write `# repro: noqa[rule-id] — reason`",
                )
            )
            continue
        suppressions[line] = Suppression(line, rule_ids, reason)
    return suppressions, findings


# ----------------------------------------------------------------------
# rule registry
# ----------------------------------------------------------------------
class Rule:
    """Base class: subclass, set the class attributes, implement
    :meth:`check` (per module, every run) and/or :meth:`check_project`
    (over the call graph, ``repro lint --deep`` only)."""

    rule_id: str = ""
    severity: str = SEVERITY_ERROR
    description: str = ""
    #: True when :meth:`check_project` has work to do; the driver builds
    #: the call graph only under ``deep`` and only for such a rule.
    uses_call_graph: bool = False

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Findings inside one module."""
        return iter(())

    def check_project(self, project) -> Iterator[Finding]:
        """Findings over a :class:`repro.lint.callgraph.Project`."""
        return iter(())

    def finding(
        self, module: ModuleSource, node: object, message: str
    ) -> Finding:
        """Build a finding anchored at an AST node (or ``(line, col)``)."""
        if isinstance(node, tuple):
            line, col = node
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(self.rule_id, self.severity, module.path, line, col, message)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a :class:`Rule` subclass to the registry."""
    if not cls.rule_id:
        raise LintError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise LintError(f"duplicate rule id {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rule_ids() -> List[str]:
    """Every registered rule id plus the framework's own ids, sorted."""
    return sorted(_REGISTRY) + [NOQA_RULE_ID]


def rule_descriptions() -> List[Tuple[str, str, str]]:
    """``(rule_id, severity, description)`` rows for ``--list-rules``."""
    rows = [
        (rule_id, cls.severity, cls.description)
        for rule_id, cls in sorted(_REGISTRY.items())
    ]
    rows.append(
        (NOQA_RULE_ID, SEVERITY_ERROR,
         "every noqa suppression names a known rule and a justification")
    )
    return rows


def build_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the selected rules (all registered rules by default)."""
    if select is None:
        return [cls() for _, cls in sorted(_REGISTRY.items())]
    rules: List[Rule] = []
    for rule_id in select:
        if rule_id == NOQA_RULE_ID:
            continue  # framework-level; always active
        if rule_id not in _REGISTRY:
            raise LintError(
                f"unknown rule id {rule_id!r}; known: {', '.join(all_rule_ids())}"
            )
        rules.append(_REGISTRY[rule_id]())
    return rules


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def _apply_suppressions(
    modules: Sequence[ModuleSource], findings: Iterable[Finding]
) -> List[Finding]:
    """Drop the findings a justified noqa on their line names, then add
    each module's ``noqa-justification`` findings once."""
    by_path = {module.path: module for module in modules}
    kept: List[Finding] = []
    for finding in findings:
        module = by_path.get(finding.path)
        supp = module.suppressions.get(finding.line) if module else None
        if supp is not None and finding.rule_id in supp.rule_ids:
            continue
        kept.append(finding)
    # Suppressions naming unknown rules are findings themselves.
    known = set(all_rule_ids())
    for module in modules:
        for supp in module.suppressions.values():
            for rule_id in supp.rule_ids:
                if rule_id not in known:
                    kept.append(
                        Finding(
                            NOQA_RULE_ID, SEVERITY_ERROR, module.path,
                            supp.line, 0,
                            f"noqa names unknown rule id {rule_id!r}",
                        )
                    )
        kept.extend(module.noqa_findings)
    return kept


def _lint(
    modules: Sequence[ModuleSource], rules: Sequence[Rule], deep: bool
) -> Tuple[List[Finding], object]:
    """Run ``rules`` over parsed modules; the call graph only if ``deep``."""
    findings = [f for m in modules for rule in rules for f in rule.check(m)]
    project = None
    if deep and any(rule.uses_call_graph for rule in rules):
        from .callgraph import build_project

        project = build_project(modules)
        for rule in rules:
            findings.extend(rule.check_project(project))
    return _apply_suppressions(modules, findings), project


def lint_source(
    text: str,
    relpath: str = "snippet.py",
    path: str = "<memory>",
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint an in-memory snippet (the per-rule fixture-test entry point)."""
    module = ModuleSource(path, text, relpath=relpath)
    return _lint([module], build_rules(select), deep=False)[0]


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    for path in paths:
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in ("__pycache__", ".git")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            raise LintError(f"no such file or directory: {path}")


def lint_tree(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    deep: bool = False,
) -> Tuple[List[Finding], object]:
    """Lint every ``.py`` file under ``paths``, each read and parsed once.

    ``deep`` adds the call-graph passes of the selected rules.  Returns
    the location-sorted findings and the call-graph ``Project`` (``None``
    when no call graph was built), whose ``coverage()`` says how much of
    the program it resolved.
    """
    rules = build_rules(select)
    modules: List[ModuleSource] = []
    unparsable: List[Finding] = []
    for filename in iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            modules.append(ModuleSource(filename, text))
        except SyntaxError as exc:
            unparsable.append(
                Finding(
                    SYNTAX_RULE_ID, SEVERITY_ERROR, filename,
                    exc.lineno or 1, exc.offset or 0,
                    f"cannot parse: {exc.msg}",
                )
            )
    findings, project = _lint(modules, rules, deep)
    findings.extend(unparsable)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings, project


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    deep: bool = False,
) -> List[Finding]:
    """The findings of :func:`lint_tree`."""
    return lint_tree(paths, select, deep)[0]
