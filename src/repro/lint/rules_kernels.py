"""The ``hot-loop`` rule: no interpreter loops on the codec kernels.

Each codec operation has one numpy kernel, so a Python-level loop over
array elements in a kernel module is a performance regression waiting
to land.  This rule makes that checkable.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from .framework import (
    Finding,
    ModuleSource,
    Rule,
    SEVERITY_ERROR,
    dotted_name,
    register_rule,
)
from .policy import VECTORISED_MODULES

__all__ = ["HotLoopRule"]


class _LoopVisitor(ast.NodeVisitor):
    """Collect loops over containers."""

    #: Iterable call targets that are per-group / per-row bookkeeping,
    #: not per-element work.
    _ALLOWED_CALLS = {"range", "enumerate", "reversed"}

    def __init__(self) -> None:
        self.offending: List[ast.stmt] = []

    def _iter_allowed(self, iterable: ast.AST) -> bool:
        if isinstance(iterable, ast.Call):
            name = dotted_name(iterable.func)
            if name is not None and name.split(".")[-1] in self._ALLOWED_CALLS:
                return True
            # zip() over arrays is element-level iteration in disguise.
            return not (name == "zip")
        # Direct iteration over a name/attribute/subscript walks the
        # container element by element in the interpreter.
        return not isinstance(iterable, (ast.Name, ast.Attribute, ast.Subscript))

    def visit_For(self, node: ast.For) -> None:
        if not self._iter_allowed(node.iter):
            self.offending.append(node)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self.offending.append(node)
        self.generic_visit(node)


@register_rule
class HotLoopRule(Rule):
    """No interpreter-level loops over arrays in kernel modules.

    In the modules listed in
    :data:`~repro.lint.policy.VECTORISED_MODULES`, a ``for`` statement
    that iterates directly over a container (name/attribute/subscript or
    ``zip(...)``), or any ``while`` loop, is almost always a per-element
    loop that belongs in a numpy kernel.  ``range`` / ``enumerate``
    loops are allowed: they express per-group or per-row structure,
    which is bounded and cheap.
    """

    rule_id = "hot-loop"
    severity = SEVERITY_ERROR
    description = "no Python-level loops over arrays in kernel modules"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.relpath not in VECTORISED_MODULES:
            return
        visitor = _LoopVisitor()
        visitor.visit(module.tree)
        for node in visitor.offending:
            kind = "while loop" if isinstance(node, ast.While) else "loop"
            yield self.finding(
                module, node,
                f"Python-level {kind} over a container in a kernel "
                "module; hoist it into a numpy kernel",
            )
