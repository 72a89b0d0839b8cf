"""Project call graph: module-qualified name resolution over the package.

A rule's per-module check sees one module at a time, so a blocking
call or an unseeded RNG hidden behind one level of helper indirection
is invisible to it.  This module builds the whole-program view the
call-graph checks (``repro lint --deep``) need:

* the :class:`~repro.lint.framework.ModuleSource` objects the driver
  already parsed for the module checks are indexed into
  module-qualified symbols (``repro.runtime.aio.AioTransport._pump``);
* imports — ``import m``, ``import m as alias``, ``from m import n as
  z``, and *relative* forms (``from .framing import ...``, ``from ..
  import telemetry``) — are resolved to absolute dotted names, and
  re-exports through package ``__init__`` modules are followed;
* method calls resolve via class-attribute lookup: ``self.m()`` walks
  the MRO (project classes only), ``self.x.m()`` uses the attribute
  types inferred from ``self.x = SomeClass(...)`` / annotated-parameter
  assignments in ``__init__``, and locally-typed variables
  (``v = SomeClass(...)``, ``def f(t: Transport)``) resolve the same
  way — with every project *override* of the method included, so
  reachability through an abstract base is sound;
* what cannot be resolved — an attribute call on an unknown receiver, a
  call through a function-valued parameter — is **recorded, not
  dropped**: every :class:`BlindSpot` names the caller, the receiver
  expression, and the line, and ``repro lint --deep`` reports the
  count (:meth:`Project.coverage`) so the dynamic-dispatch limitation
  stays visible instead of silently shrinking the graph.

The result is a :class:`Project`: functions, classes, project call
edges, external calls (resolved dotted names that leave the package,
e.g. ``time.sleep``), unresolved method calls, and blind spots — plus
:meth:`Project.reachable` / :meth:`Project.call_path` for the
reachability rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .framework import ModuleSource, dotted_name

__all__ = [
    "PACKAGE_ROOT_NAME",
    "module_name_for_relpath",
    "CallSite",
    "BlindSpot",
    "FunctionNode",
    "ClassInfo",
    "Project",
    "build_project",
    "build_project_from_sources",
    "format_call_path",
]

#: All project symbols live under this dotted root (the package name).
PACKAGE_ROOT_NAME = "repro"

#: Names that are near-certainly builtins when they resolve to nothing
#: local — calling one is not a dynamic-dispatch blind spot.
_BUILTIN_NAMES = frozenset(
    {
        "abs", "all", "any", "bool", "bytearray", "bytes", "callable",
        "chr", "classmethod", "dict", "divmod", "enumerate", "filter",
        "float", "format", "frozenset", "getattr", "hasattr", "hash",
        "hex", "id", "int", "isinstance", "issubclass", "iter", "len",
        "list", "map", "max", "memoryview", "min", "next", "object",
        "open", "ord", "pow", "print", "property", "range", "repr",
        "reversed", "round", "set", "setattr", "slice", "sorted",
        "staticmethod", "str", "sum", "super", "tuple", "type", "vars",
        "zip", "ValueError", "TypeError", "RuntimeError", "KeyError",
        "IndexError", "AttributeError", "OSError", "StopIteration",
        "NotImplementedError", "Exception", "BaseException",
        "ArithmeticError", "OverflowError", "ZeroDivisionError",
        "AssertionError", "EOFError", "BlockingIOError",
        "InterruptedError", "BrokenPipeError", "FileNotFoundError",
        "PermissionError", "TimeoutError", "ConnectionError",
        "KeyboardInterrupt", "SystemExit", "UnicodeDecodeError",
        "BufferError", "LookupError", "NameError", "dir", "input",
    }
)


def module_name_for_relpath(relpath: str) -> str:
    """Dotted module name for a package-relative path.

    ``runtime/aio.py`` → ``repro.runtime.aio``;
    ``core/__init__.py`` → ``repro.core``; ``__init__.py`` → ``repro``.
    """
    path = relpath[:-3] if relpath.endswith(".py") else relpath
    parts = [p for p in path.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([PACKAGE_ROOT_NAME] + parts)


def format_call_path(path: Sequence[str]) -> str:
    """``a -> b -> c`` for a call chain, package prefix dropped."""
    return " -> ".join(
        p.replace(PACKAGE_ROOT_NAME + ".", "", 1) for p in path
    )


@dataclass
class CallSite:
    """One resolved call expression inside a function body.

    Exactly one of the three shapes applies:

    * ``targets`` non-empty — project functions this call may invoke
      (several under class-hierarchy dispatch);
    * ``external`` set — an absolute dotted name that leaves the
      project (``time.sleep``, ``struct.pack``, ``numpy.frombuffer``);
    * ``method`` set — an attribute call whose receiver could not be
      typed (``conn.sock.recv_into`` where ``sock`` is external): the
      method *name* is still available for pattern rules.
    """

    node: ast.Call
    targets: Tuple[str, ...] = ()
    external: Optional[str] = None
    method: Optional[str] = None


@dataclass(frozen=True)
class BlindSpot:
    """A call the resolver could not follow (dynamic dispatch)."""

    caller: str
    receiver: str
    line: int


@dataclass
class FunctionNode:
    """One function/method (or a module's import-time body)."""

    qualname: str
    name: str
    module: ModuleSource
    relpath: str
    node: ast.AST
    cls: Optional[str] = None
    call_sites: List[CallSite] = field(default_factory=list)

    @property
    def is_module_body(self) -> bool:
        return self.name == "<module>"


@dataclass
class ClassInfo:
    """One project class: bases, methods, inferred attribute types."""

    qualname: str
    name: str
    module: ModuleSource
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionNode] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)


class Project:
    """The whole-program model the call-graph checks run over."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleSource] = {}  # relpath -> source
        self.modules_by_name: Dict[str, ModuleSource] = {}
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.edges: Dict[str, Set[str]] = {}
        self.blind_spots: List[BlindSpot] = []
        self.subclasses: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    def edge_count(self) -> int:
        return sum(len(v) for v in self.edges.values())

    def coverage(self) -> str:
        """How much of the program the graph resolves, in one line."""
        return (
            f"{len(self.modules)} modules, {len(self.functions)} functions, "
            f"{len(self.classes)} classes, {self.edge_count()} call edges, "
            f"{len(self.blind_spots)} dynamic-dispatch blind spots"
        )

    def functions_in(self, relpaths: Iterable[str]) -> List[str]:
        """Qualnames of all functions defined in the given relpaths."""
        wanted = set(relpaths)
        return sorted(
            q for q, fn in self.functions.items() if fn.relpath in wanted
        )

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """All functions transitively callable from ``roots`` (inclusive)."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(
                t for t in self.edges.get(cur, ()) if t not in seen
            )
        return seen

    def call_path(
        self, roots: Iterable[str], target: str
    ) -> Optional[List[str]]:
        """Shortest call chain from any root to ``target`` (BFS)."""
        from collections import deque

        parents: Dict[str, Optional[str]] = {}
        queue = deque()
        for root in sorted(set(roots)):
            if root in self.functions and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            cur = queue.popleft()
            if cur == target:
                path = [cur]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])
                return list(reversed(path))
            for nxt in sorted(self.edges.get(cur, ())):
                if nxt not in parents:
                    parents[nxt] = cur
                    queue.append(nxt)
        return None

    # ------------------------------------------------------------------
    def mro(self, class_qual: str) -> List[str]:
        """Linearised project-class ancestry (BFS; external bases skipped)."""
        order: List[str] = []
        queue = [class_qual]
        while queue:
            cur = queue.pop(0)
            if cur in order or cur not in self.classes:
                continue
            order.append(cur)
            queue.extend(self.classes[cur].bases)
        return order

    def lookup_method(
        self, class_qual: str, name: str, *, include_overrides: bool = False
    ) -> List[str]:
        """Resolve ``<class>.<name>`` via the MRO (class-attr lookup).

        With ``include_overrides`` the overrides defined by project
        subclasses of ``class_qual`` are added — the class-hierarchy
        dispatch set a call through a base-typed variable may reach.
        """
        targets: List[str] = []
        for cls in self.mro(class_qual):
            method = self.classes[cls].methods.get(name)
            if method is not None:
                targets.append(method.qualname)
                break
        if include_overrides:
            for sub in sorted(self._all_subclasses(class_qual)):
                method = self.classes[sub].methods.get(name)
                if method is not None and method.qualname not in targets:
                    targets.append(method.qualname)
        return targets

    def _all_subclasses(self, class_qual: str) -> Set[str]:
        out: Set[str] = set()
        stack = list(self.subclasses.get(class_qual, ()))
        while stack:
            cur = stack.pop()
            if cur in out:
                continue
            out.add(cur)
            stack.extend(self.subclasses.get(cur, ()))
        return out


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def build_project(modules: Sequence[ModuleSource]) -> Project:
    """Index modules, resolve imports, and wire the call graph."""
    builder = _Builder(modules)
    return builder.build()


def build_project_from_sources(sources: Dict[str, str]) -> Project:
    """Build a project from ``{relpath: source}`` (fixture entry point)."""
    modules = [
        ModuleSource(relpath, text, relpath=relpath)
        for relpath, text in sorted(sources.items())
    ]
    return build_project(modules)


class _Builder:
    def __init__(self, modules: Sequence[ModuleSource]) -> None:
        self.project = Project()
        for module in modules:
            self.project.modules[module.relpath] = module
            self.project.modules_by_name[
                module_name_for_relpath(module.relpath)
            ] = module

    # -- pass 1: symbol index ------------------------------------------
    def build(self) -> Project:
        for relpath, module in sorted(self.project.modules.items()):
            self._index_module(module)
        for cls in self.project.classes.values():
            self._resolve_bases(cls)
        for cls in self.project.classes.values():
            self._infer_attr_types(cls)
        for fn in list(self.project.functions.values()):
            self._resolve_calls(fn)
        return self.project

    def _index_module(self, module: ModuleSource) -> None:
        mod_name = module_name_for_relpath(module.relpath)
        body_fn = FunctionNode(
            qualname=f"{mod_name}.<module>",
            name="<module>",
            module=module,
            relpath=module.relpath,
            node=module.tree,
        )
        self.project.functions[body_fn.qualname] = body_fn
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionNode(
                    qualname=f"{mod_name}.{node.name}",
                    name=node.name,
                    module=module,
                    relpath=module.relpath,
                    node=node,
                )
                self.project.functions[fn.qualname] = fn
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(
                    qualname=f"{mod_name}.{node.name}",
                    name=node.name,
                    module=module,
                    node=node,
                )
                self.project.classes[cls.qualname] = cls
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        fn = FunctionNode(
                            qualname=f"{cls.qualname}.{item.name}",
                            name=item.name,
                            module=module,
                            relpath=module.relpath,
                            node=item,
                            cls=cls.qualname,
                        )
                        cls.methods[item.name] = fn
                        self.project.functions[fn.qualname] = fn

    # -- import resolution ---------------------------------------------
    def _absolute_module(self, module: ModuleSource, mod_str: str) -> str:
        """Absolute dotted module for an import spec (dots resolved)."""
        level = 0
        while level < len(mod_str) and mod_str[level] == ".":
            level += 1
        rest = mod_str[level:]
        if level == 0:
            return rest
        cur = module_name_for_relpath(module.relpath)
        if module.relpath.endswith("__init__.py") or "/" not in module.relpath:
            # A package __init__ anchors at itself; a top-level module
            # anchors at the package root.
            pkg = cur if module.relpath.endswith("__init__.py") else (
                cur.rsplit(".", 1)[0] if "." in cur else cur
            )
        else:
            pkg = cur.rsplit(".", 1)[0]
        for _ in range(level - 1):
            if "." in pkg:
                pkg = pkg.rsplit(".", 1)[0]
        return f"{pkg}.{rest}" if rest else pkg

    def _resolve_local(
        self, module: ModuleSource, name: str
    ) -> Optional[str]:
        """Absolute dotted name a module-local identifier refers to."""
        mod_name = module_name_for_relpath(module.relpath)
        if f"{mod_name}.{name}" in self.project.functions:
            return f"{mod_name}.{name}"
        if f"{mod_name}.{name}" in self.project.classes:
            return f"{mod_name}.{name}"
        if name in module.from_imports:
            src, original = module.from_imports[name]
            base = self._absolute_module(module, src)
            return f"{base}.{original}" if base else original
        if name in module.import_aliases:
            return module.import_aliases[name]
        return None

    def _resolve_dotted(
        self, module: ModuleSource, dotted: str
    ) -> Optional[str]:
        head, _, rest = dotted.partition(".")
        base = self._resolve_local(module, head)
        if base is None:
            return None
        return f"{base}.{rest}" if rest else base

    def _lookup_symbol(self, dotted: str, depth: int = 0):
        """Project symbol for an absolute dotted name, re-exports followed.

        ``repro.telemetry.counter`` resolves through the package
        ``__init__``'s ``from .recorder import counter`` to the real
        :class:`FunctionNode`.  Returns a FunctionNode, a ClassInfo, or
        ``None`` (external).
        """
        if depth > 8 or not dotted:
            return None
        if dotted in self.project.functions:
            return self.project.functions[dotted]
        if dotted in self.project.classes:
            return self.project.classes[dotted]
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:i])
            module = self.project.modules_by_name.get(prefix)
            if module is None:
                continue
            target = self._resolve_local(module, parts[i])
            if target is None:
                return None
            rest = parts[i + 1:]
            return self._lookup_symbol(
                ".".join([target] + rest) if rest else target, depth + 1
            )
        return None

    # -- pass 2: class hierarchy + attribute types ---------------------
    def _resolve_bases(self, cls: ClassInfo) -> None:
        for base_expr in cls.node.bases:
            name = dotted_name(base_expr)
            if name is None:
                continue
            resolved = self._resolve_dotted(cls.module, name)
            if resolved is None:
                continue
            sym = self._lookup_symbol(resolved)
            if isinstance(sym, ClassInfo):
                cls.bases.append(sym.qualname)
                self.project.subclasses.setdefault(sym.qualname, set()).add(
                    cls.qualname
                )

    def _class_of_expr(
        self,
        module: ModuleSource,
        expr: ast.expr,
        param_types: Optional[Dict[str, str]] = None,
    ) -> Optional[str]:
        """Project class an expression evaluates to, if inferable."""
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            if name is None:
                return None
            resolved = self._resolve_dotted(module, name)
            if resolved is None:
                return None
            sym = self._lookup_symbol(resolved)
            if isinstance(sym, ClassInfo):
                return sym.qualname
            return None
        if isinstance(expr, ast.Name) and param_types:
            return param_types.get(expr.id)
        return None

    def _annotation_class(
        self, module: ModuleSource, annotation: Optional[ast.expr]
    ) -> Optional[str]:
        if annotation is None:
            return None
        name = dotted_name(annotation)
        if name is None:
            # Optional["Transport"] and friends: try string constants.
            if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str
            ):
                name = annotation.value
            else:
                return None
        resolved = self._resolve_dotted(module, name)
        if resolved is None:
            return None
        sym = self._lookup_symbol(resolved)
        return sym.qualname if isinstance(sym, ClassInfo) else None

    def _param_types(self, module: ModuleSource, fn_node) -> Dict[str, str]:
        out: Dict[str, str] = {}
        if not isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return out
        args = fn_node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            cls = self._annotation_class(module, arg.annotation)
            if cls is not None:
                out[arg.arg] = cls
        return out

    def _infer_attr_types(self, cls: ClassInfo) -> None:
        """``self.x = SomeClass(...)`` / annotated-param assigns → types."""
        for method in cls.methods.values():
            param_types = self._param_types(cls.module, method.node)
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        inferred = self._class_of_expr(
                            cls.module, node.value, param_types
                        )
                        if inferred is not None:
                            cls.attr_types.setdefault(target.attr, inferred)

    # -- pass 3: call sites --------------------------------------------
    def _local_var_types(self, fn: FunctionNode) -> Dict[str, str]:
        types = self._param_types(fn.module, fn.node)
        cls = self.project.classes.get(fn.cls) if fn.cls else None
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                inferred = self._class_of_expr(fn.module, node.value, types)
                if inferred is None and isinstance(node.value, ast.Name):
                    inferred = types.get(node.value.id)
                if (
                    inferred is None
                    and cls is not None
                    and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "self"
                ):
                    inferred = cls.attr_types.get(node.value.attr)
                if inferred is not None:
                    types.setdefault(target.id, inferred)
        return types

    def _iter_own_calls(self, fn: FunctionNode) -> Iterator[ast.Call]:
        """Call expressions belonging to this function.

        A module-body pseudo-function owns only the import-time calls —
        everything outside ``def``/``class`` bodies (class-level
        assignments run at import and count too).  Real functions own
        every call in their body, including nested ``def``s/lambdas
        (conservative: the nested code typically runs on their behalf).
        """
        if not fn.is_module_body:
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    yield node
            return

        def walk_stmts(stmts, in_class: bool) -> Iterator[ast.Call]:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # decorators/defaults evaluate at import time
                    for expr in list(stmt.decorator_list) + list(
                        stmt.args.defaults
                    ):
                        for node in ast.walk(expr):
                            if isinstance(node, ast.Call):
                                yield node
                    continue
                if isinstance(stmt, ast.ClassDef):
                    for expr in list(stmt.decorator_list) + list(stmt.bases):
                        for node in ast.walk(expr):
                            if isinstance(node, ast.Call):
                                yield node
                    for sub in walk_stmts(stmt.body, True):
                        yield sub
                    continue
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call):
                        yield node

        for call in walk_stmts(fn.node.body, False):
            yield call

    def _resolve_calls(self, fn: FunctionNode) -> None:
        var_types = (
            {} if fn.is_module_body else self._local_var_types(fn)
        )
        param_names = set()
        if isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = fn.node.args
            param_names = {
                a.arg
                for a in list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            }
        for call in self._iter_own_calls(fn):
            site = self._resolve_one_call(fn, call, var_types, param_names)
            fn.call_sites.append(site)
            for target in site.targets:
                self.project.edges.setdefault(fn.qualname, set()).add(target)

    def _class_targets(self, cls_qual: str, attr: str) -> Tuple[str, ...]:
        return tuple(
            self.project.lookup_method(cls_qual, attr, include_overrides=True)
        )

    def _function_or_init(self, sym) -> Tuple[str, ...]:
        if isinstance(sym, FunctionNode):
            return (sym.qualname,)
        if isinstance(sym, ClassInfo):
            init = self.project.lookup_method(sym.qualname, "__init__")
            return tuple(init)
        return ()

    def _resolve_one_call(
        self,
        fn: FunctionNode,
        call: ast.Call,
        var_types: Dict[str, str],
        param_names: Set[str],
    ) -> CallSite:
        func = call.func
        # super().m(...) — dispatch up the MRO from the owning class.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and fn.cls is not None
        ):
            for base in self.project.mro(fn.cls)[1:]:
                targets = self.project.lookup_method(base, func.attr)
                if targets:
                    return CallSite(call, targets=tuple(targets))
            return CallSite(call, method=func.attr)
        name = dotted_name(func)
        if name is None:
            if isinstance(func, ast.Attribute):
                return CallSite(call, method=func.attr)
            self.project.blind_spots.append(
                BlindSpot(fn.qualname, ast.dump(func)[:60], call.lineno)
            )
            return CallSite(call)
        parts = name.split(".")
        head = parts[0]
        if head in ("self", "cls") and fn.cls is not None:
            cls = self.project.classes[fn.cls]
            if len(parts) == 2:
                targets = self._class_targets(fn.cls, parts[1])
                if targets:
                    return CallSite(call, targets=targets)
                self.project.blind_spots.append(
                    BlindSpot(fn.qualname, name, call.lineno)
                )
                return CallSite(call, method=parts[1])
            if len(parts) == 3 and parts[1] in cls.attr_types:
                targets = self._class_targets(cls.attr_types[parts[1]], parts[2])
                if targets:
                    return CallSite(call, targets=targets)
            self.project.blind_spots.append(
                BlindSpot(fn.qualname, name, call.lineno)
            )
            return CallSite(call, method=parts[-1])
        if head in var_types:
            if len(parts) == 1:
                # calling an instance: __call__ dispatch is out of scope
                self.project.blind_spots.append(
                    BlindSpot(fn.qualname, name, call.lineno)
                )
                return CallSite(call)
            if len(parts) == 2:
                targets = self._class_targets(var_types[head], parts[1])
                if targets:
                    return CallSite(call, targets=targets)
            self.project.blind_spots.append(
                BlindSpot(fn.qualname, name, call.lineno)
            )
            return CallSite(call, method=parts[-1])
        resolved = self._resolve_dotted(fn.module, name)
        if resolved is not None:
            sym = self._lookup_symbol(resolved)
            targets = self._function_or_init(sym)
            if targets:
                return CallSite(call, targets=targets)
            if isinstance(sym, ClassInfo):
                # instantiation of a project class without __init__:
                # still an internal event, not an external call
                return CallSite(call)
            return CallSite(
                call,
                external=resolved,
                method=parts[-1] if isinstance(func, ast.Attribute) else None,
            )
        if isinstance(func, ast.Name):
            if name in _BUILTIN_NAMES:
                return CallSite(call, external=name)
            if name in param_names:
                self.project.blind_spots.append(
                    BlindSpot(
                        fn.qualname, f"{name} (function-valued parameter)",
                        call.lineno,
                    )
                )
                return CallSite(call)
            return CallSite(call, external=name)
        self.project.blind_spots.append(
            BlindSpot(fn.qualname, name, call.lineno)
        )
        return CallSite(call, method=func.attr)
