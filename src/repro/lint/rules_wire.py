"""Wire-format locality: byte-layout code lives in designated modules.

The SketchML wire format is pinned by golden digests; a ``struct.pack``
or ``.tobytes()`` sprinkled into a random module is a second,
unversioned opinion about byte layout that the golden suite cannot see.
All byte-format primitives are therefore confined to the serialization
modules listed in :data:`~repro.lint.policy.WIRE_MODULES`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from .callgraph import Project, format_call_path
from .framework import (
    Finding,
    ModuleSource,
    Rule,
    SEVERITY_ERROR,
    dotted_name,
    register_rule,
)
from .policy import WIRE_MODULES, is_endianness_scoped

__all__ = ["WireFormatRule", "WireEndiannessRule"]


def _byte_primitive(name: Optional[str], method: Optional[str]) -> str:
    """What a call does with raw bytes, or '' if it is no byte primitive.

    ``name`` is the call's resolved dotted name, ``method`` the
    attribute it calls, if any.
    """
    if name is not None and name.startswith("struct."):
        return f"{name}() call"
    if name == "numpy.frombuffer":
        return "np.frombuffer() reinterprets raw bytes"
    if method == "tobytes":
        return ".tobytes() emits raw wire bytes"
    return ""


@register_rule
class WireFormatRule(Rule):
    """struct / frombuffer / tobytes only inside serialization modules.

    Flags, outside :data:`~repro.lint.policy.WIRE_MODULES`:

    * ``import struct`` / ``from struct import ...``;
    * calls into ``struct.*`` (pack/unpack/calcsize/Struct);
    * ``np.frombuffer(...)`` — reinterpreting raw bytes;
    * ``.tobytes()`` method calls — emitting raw bytes.

    Under ``--deep`` it also flags, outside the wire modules:

    * a call into the *escape set* — the fixpoint of non-wire functions
      that use a byte primitive directly or call another escape-set
      function — so a caller that launders a primitive through a
      helper is caught too.  Calls into public wire-module functions
      do not propagate: that is the sanctioned path;
    * a call to an underscore-private function or method of a wire
      module — the codec API is its public names; private helpers may
      assume caller invariants the golden tests never see violated.

    New wire needs should extend :mod:`repro.core.serialization` (or a
    new allowlisted codec module) so the format stays versioned, golden-
    tested, and in one place.
    """

    rule_id = "wire-format"
    severity = SEVERITY_ERROR
    uses_call_graph = True
    description = (
        "byte-format primitives (struct, frombuffer, tobytes) only in "
        "designated serialization modules (--deep: also helpers that "
        "reach them and private wire helpers)"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.relpath in WIRE_MODULES:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "struct":
                        yield self.finding(
                            module, node,
                            "import struct outside a serialization module",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "struct" and node.level == 0:
                    yield self.finding(
                        module, node,
                        "from struct import ... outside a serialization module",
                    )
            elif isinstance(node, ast.Call):
                method = (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute) else None
                )
                what = _byte_primitive(module.resolve_call(node), method)
                if what:
                    yield self.finding(
                        module, node,
                        f"{what} outside a serialization module",
                    )

    def _escape_set(self, project: Project) -> Set[str]:
        escaped: Set[str] = set()
        for qualname, fn in project.functions.items():
            if fn.relpath in WIRE_MODULES:
                continue
            if any(
                _byte_primitive(s.external, s.method) for s in fn.call_sites
            ):
                escaped.add(qualname)
        # Propagate to callers: a non-wire function whose callee is in
        # the escape set escapes too (the callee is not a sanctioned
        # codec entry point, by construction).
        changed = True
        while changed:
            changed = False
            for qualname, targets in project.edges.items():
                fn = project.functions[qualname]
                if fn.relpath in WIRE_MODULES or qualname in escaped:
                    continue
                if any(t in escaped for t in targets):
                    escaped.add(qualname)
                    changed = True
        return escaped

    def check_project(self, project: Project) -> Iterator[Finding]:
        escaped = self._escape_set(project)
        for qualname in sorted(project.functions):
            fn = project.functions[qualname]
            if fn.relpath in WIRE_MODULES:
                continue
            for site in fn.call_sites:
                for target in site.targets:
                    callee = project.functions.get(target)
                    if callee is None:
                        continue
                    if target in escaped:
                        yield self.finding(
                            fn.module, site.node,
                            f"call into {format_call_path([target])}, "
                            "which reaches byte-format primitives outside "
                            "the designated wire modules",
                        )
                    elif (
                        callee.relpath in WIRE_MODULES
                        and callee.name.startswith("_")
                        and not callee.name.startswith("__")
                    ):
                        yield self.finding(
                            fn.module, site.node,
                            f"call to private wire helper "
                            f"{format_call_path([target])} bypasses the "
                            "public codec API",
                        )


#: numpy scalar-type names whose byte layout depends on host
#: endianness; single-byte types (uint8/int8/bool) are exempt.
_MULTIBYTE_NUMPY_TYPES = frozenset(
    {
        "uint16", "uint32", "uint64", "int16", "int32", "int64",
        "float16", "float32", "float64", "half", "single", "double",
        "intc", "uintc", "intp", "uintp", "longlong", "ulonglong",
    }
)

#: dtype-string codes with multi-byte width (struct-style characters
#: and array-interface letters).
_MULTIBYTE_CODES = frozenset("uifUIFeEdgGhHlLqQ")


def _unpinned_dtype_string(literal: str) -> bool:
    """True when a dtype string literal is multi-byte but not '<'-pinned."""
    s = literal.strip()
    if not s:
        return False
    if s[0] == "<":
        return False  # explicitly little-endian
    if s[0] in ">=|":
        # big-endian / native / ignore markers: '>' and '=' are wrong
        # on the wire, '|' is single-byte only.
        return s[0] in ">="
    # Name forms: "uint8" is fine, "uint32"/"float64" are not.
    if s in ("uint8", "int8", "bool", "u1", "i1", "b1", "B", "b", "?", "S1"):
        return False
    if s[0] in _MULTIBYTE_CODES:
        width = s[1:] or ""
        return width != "1"
    return s in _MULTIBYTE_NUMPY_TYPES


def _resolve_name(module: ModuleSource, node: ast.expr) -> Optional[str]:
    """Alias-resolved dotted name of a bare expression (``np.uint32``)."""
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    if head in module.import_aliases:
        full = module.import_aliases[head]
        return f"{full}.{rest}" if rest else full
    if head in module.from_imports:
        mod, original = module.from_imports[head]
        base = f"{mod}.{original}" if mod else original
        return f"{base}.{rest}" if rest else base
    return name


class _DtypeOfCall:
    """Extract the dtype argument of a numpy constructor/cast call."""

    @staticmethod
    def get(node: ast.Call, module: ModuleSource) -> Optional[ast.expr]:
        name = module.resolve_call(node)
        if name in ("numpy.frombuffer", "numpy.asarray", "numpy.array",
                    "numpy.empty", "numpy.zeros", "numpy.ones"):
            for kw in node.keywords:
                if kw.arg == "dtype":
                    return kw.value
            if name == "numpy.frombuffer" and len(node.args) >= 2:
                return node.args[1]
            return None
        if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
            if node.args:
                return node.args[0]
            for kw in node.keywords:
                if kw.arg == "dtype":
                    return kw.value
        return None


@register_rule
class WireEndiannessRule(Rule):
    """Wire modules must pin byte order on multi-byte dtypes.

    The frame headers use ``struct`` with explicit ``"<"`` formats, but
    a ``np.frombuffer(..., dtype=np.uint32)`` or
    ``np.uint32(n).tobytes()`` silently uses *host* byte order — the
    format would flip on a big-endian machine while every golden digest
    still passes there.  Inside :data:`~repro.lint.policy.WIRE_MODULES`
    and the telemetry package (whose flight-recorder files are merged
    across machines — :data:`~repro.lint.policy.ENDIANNESS_PREFIXES`)
    this rule flags the statically-detectable unpinned cases:

    * ``np.frombuffer(...)`` with a multi-byte numpy-attribute dtype
      (``np.uint32``) or an unpinned dtype string (``"u4"``, ``">u4"``);
    * ``.tobytes()`` directly on a numpy scalar constructor or an
      ``astype``/``asarray`` cast with such a dtype;
    * any multi-byte dtype *string literal* not starting with ``"<"``.

    Fix by spelling the dtype as an explicit little-endian string:
    ``"<u4"``, ``"<f8"``.  Single-byte dtypes carry no byte order and
    are exempt.
    """

    rule_id = "wire-endianness"
    severity = SEVERITY_ERROR
    description = (
        "multi-byte dtypes in wire modules must be little-endian "
        "('<'-prefixed) strings"
    )

    def _dtype_problem(
        self, dtype_node: ast.expr, module: ModuleSource
    ) -> Optional[str]:
        if isinstance(dtype_node, ast.Constant) and isinstance(
            dtype_node.value, str
        ):
            if _unpinned_dtype_string(dtype_node.value):
                return f'dtype "{dtype_node.value}" does not pin byte order'
            return None
        name = _resolve_name(module, dtype_node)
        if name is not None and name.startswith("numpy."):
            short = name[len("numpy."):]
            if short in _MULTIBYTE_NUMPY_TYPES:
                return (
                    f"np.{short} uses host byte order; spell it as an "
                    f'explicit "<"-prefixed dtype string'
                )
        return None

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not is_endianness_scoped(module.relpath):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve_call(node)
            # np.frombuffer always reinterprets wire bytes.
            if name == "numpy.frombuffer":
                dtype_node = _DtypeOfCall.get(node, module)
                if dtype_node is not None:
                    problem = self._dtype_problem(dtype_node, module)
                    if problem is not None:
                        yield self.finding(module, node, problem)
                continue
            # <cast>.tobytes() puts the cast's layout on the wire:
            # np.uint32(n).tobytes(), x.astype(np.uint32).tobytes(),
            # np.asarray(x, dtype=np.float64).tobytes().
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "tobytes"
                and isinstance(node.func.value, ast.Call)
            ):
                inner = node.func.value
                inner_name = module.resolve_call(inner)
                if inner_name is not None and inner_name.startswith("numpy."):
                    short = inner_name[len("numpy."):]
                    if short in _MULTIBYTE_NUMPY_TYPES:
                        yield self.finding(
                            module, node,
                            f"np.{short}(...).tobytes() emits host-order "
                            f'bytes; go through np.asarray(..., dtype="<...")',
                        )
                        continue
                dtype_node = _DtypeOfCall.get(inner, module)
                if dtype_node is not None:
                    problem = self._dtype_problem(dtype_node, module)
                    if problem is not None:
                        yield self.finding(module, node, problem)
                continue
            # Elsewhere, only dtype *string literals* signal wire
            # intent — pinning them costs nothing and documents the
            # layout (in-memory numpy-attr dtypes stay legal).
            dtype_node = _DtypeOfCall.get(node, module)
            if (
                dtype_node is not None
                and isinstance(dtype_node, ast.Constant)
                and isinstance(dtype_node.value, str)
                and _unpinned_dtype_string(dtype_node.value)
            ):
                yield self.finding(
                    module, node,
                    f'dtype "{dtype_node.value}" does not pin byte order',
                )
        # Bare multi-byte dtype string literals used outside calls
        # (e.g. a module-level DTYPE = "u4" fed to frombuffer later).
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
                and any(
                    isinstance(t, ast.Name) and "dtype" in t.id.lower()
                    for t in node.targets
                )
                and _unpinned_dtype_string(node.value.value)
            ):
                yield self.finding(
                    module, node,
                    f'dtype constant "{node.value.value}" does not pin '
                    "byte order",
                )
