"""Flow rules: RNG seed provenance and lock-acquisition order.

* ``seed-flow`` is a forward may-taint analysis over the
  :mod:`repro.lint.dataflow` engine: an RNG born from an
  *unseeded* constructor (``np.random.default_rng()`` with no seed,
  ``random.Random()``, a wall-clock seed) taints the variable holding
  it; taint propagates through assignments and project-function
  returns/parameters to a fixpoint; a finding fires where a tainted
  value is passed into a function defined in a seed-scoped module
  (:data:`~repro.lint.policy.SEED_SCOPE_PREFIXES` — the codec, the
  sketches, the compressors, the runtime).  The per-module
  ``rng-discipline`` rule flags unseeded constructors *written in*
  library code; this rule catches the one constructed elsewhere (a
  script, a benchmark harness) and handed in.

* ``lock-order`` builds the lock-acquisition graph of the runtime
  (:data:`~repro.lint.policy.LOCK_SCOPE_PREFIXES`): locks are
  ``threading.Lock``/``RLock``/``Condition`` objects bound to class
  attributes or module globals; acquiring is a ``with`` on one.  While
  a lock is held, every lock acquired lexically inside the block — or
  anywhere in a project function the block calls, transitively — adds
  an ordering edge.  Cycles in that graph are potential deadlocks;
  a blocking primitive called while holding a lock is a stall that
  serialises every other acquirer.  Self-edges are ignored
  (re-entrant acquisition of one lock is ``RLock``'s business, not an
  ordering bug).
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from .callgraph import CallSite, FunctionNode, Project
from .dataflow import BasicBlock, ForwardAnalysis, build_cfg
from .framework import (
    Finding,
    ModuleSource,
    Rule,
    SEVERITY_ERROR,
    dotted_name,
    register_rule,
)
from .policy import is_lock_scoped, is_seed_scoped
from .rules_reachability import site_blocking_reason

__all__ = ["SeedFlowRule", "LockOrderRule"]

#: RNG constructors that must receive a seed to be deterministic.
RNG_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "random.Random",
    }
)

#: Seed expressions that are wall-clock/entropy — seeded in form only.
NONDETERMINISTIC_SEEDS = frozenset(
    {"time.time", "time.time_ns", "time.monotonic", "os.urandom",
     "uuid.uuid4", "secrets.randbits", "secrets.token_bytes"}
)


def _is_tainted_constructor(module: ModuleSource, call: ast.Call) -> bool:
    """True for an RNG constructor whose seed is absent or wall-clock."""
    name = module.resolve_call(call)
    if name not in RNG_CONSTRUCTORS:
        return False
    seed_args = list(call.args) + [
        kw.value for kw in call.keywords if kw.arg in ("seed", "x")
    ]
    if not seed_args:
        return True
    for arg in seed_args:
        if isinstance(arg, ast.Call):
            seed_name = module.resolve_call(arg)
            if seed_name in NONDETERMINISTIC_SEEDS:
                return True
        if isinstance(arg, ast.Constant) and arg.value is None:
            return True
    return False


def _stmt_scan_parts(stmt: ast.stmt) -> List[ast.AST]:
    """The expression parts a CFG block actually *executes* for a stmt.

    Compound statements sit in a block only to carry their test /
    iterable / context expressions — their bodies live in other
    blocks, so scanning the whole node would double-count.
    """
    if isinstance(stmt, ast.If):
        return [stmt.test]
    if isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return [stmt]


class _TaintEvents:
    """What one replay pass of a function observed."""

    def __init__(self) -> None:
        self.returns_tainted = False
        self.param_taint: List[Tuple[str, str]] = []  # (callee, param)
        self.findings: List[Tuple[ast.Call, str]] = []


class _FunctionTaint(ForwardAnalysis):
    """May-taint over variable names (``x``, ``self.rng``)."""

    def __init__(
        self,
        project: Project,
        fn: FunctionNode,
        param_taint: Dict[str, FrozenSet[str]],
        returns_tainted: Dict[str, bool],
    ) -> None:
        self.project = project
        self.fn = fn
        self.param_taint = param_taint
        self.returns_tainted = returns_tainted
        self.sites = {id(site.node): site for site in fn.call_sites}

    def initial_state(self) -> FrozenSet[str]:
        return self.param_taint.get(self.fn.qualname, frozenset())

    def join(self, states: List[FrozenSet[str]]) -> FrozenSet[str]:
        out: Set[str] = set()
        for state in states:
            out |= state
        return frozenset(out)

    def transfer(
        self, block: BasicBlock, state: FrozenSet[str]
    ) -> FrozenSet[str]:
        for stmt in block.statements:
            state = self.step(stmt, state)
        return state

    # ------------------------------------------------------------------
    def expr_tainted(self, expr: ast.AST, state: FrozenSet[str]) -> bool:
        name = dotted_name(expr)
        if name is not None and name in state:
            return True
        if isinstance(expr, ast.Call):
            if _is_tainted_constructor(self.fn.module, expr):
                return True
            site = self.sites.get(id(expr))
            if site is not None and any(
                self.returns_tainted.get(t, False) for t in site.targets
            ):
                return True
            return False
        if isinstance(expr, ast.IfExp):
            return self.expr_tainted(expr.body, state) or self.expr_tainted(
                expr.orelse, state
            )
        if isinstance(expr, (ast.BoolOp,)):
            return any(self.expr_tainted(v, state) for v in expr.values)
        if isinstance(expr, ast.NamedExpr):
            return self.expr_tainted(expr.value, state)
        return False

    def step(
        self,
        stmt: ast.stmt,
        state: FrozenSet[str],
        events: Optional[_TaintEvents] = None,
    ) -> FrozenSet[str]:
        if events is not None:
            self._observe(stmt, state, events)
        if isinstance(stmt, ast.Assign):
            tainted = self.expr_tainted(stmt.value, state)
            names = [dotted_name(t) for t in stmt.targets]
            out = set(state)
            for name in names:
                if name is None:
                    continue
                if tainted:
                    out.add(name)
                else:
                    out.discard(name)
            return frozenset(out)
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            name = dotted_name(stmt.target)
            if name is not None:
                out = set(state)
                if self.expr_tainted(stmt.value, state):
                    out.add(name)
                else:
                    out.discard(name)
                return frozenset(out)
        return state

    # ------------------------------------------------------------------
    def _callee_param(self, target: str, call: ast.Call, pos: int,
                      keyword: Optional[str]) -> Optional[str]:
        callee = self.project.functions.get(target)
        if callee is None or not isinstance(
            callee.node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return None
        params = [a.arg for a in callee.node.args.args]
        if callee.cls is not None and params and params[0] in ("self", "cls"):
            params = params[1:]
        if keyword is not None:
            all_params = params + [
                a.arg for a in callee.node.args.kwonlyargs
            ]
            return keyword if keyword in all_params else None
        if 0 <= pos < len(params):
            return params[pos]
        return None

    def _observe(
        self, stmt: ast.stmt, state: FrozenSet[str], events: _TaintEvents
    ) -> None:
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            if self.expr_tainted(stmt.value, state):
                events.returns_tainted = True
        for part in _stmt_scan_parts(stmt):
            for node in ast.walk(part):
                if not isinstance(node, ast.Call):
                    continue
                site = self.sites.get(id(node))
                if site is None or not site.targets:
                    continue
                args = [(i, None, a) for i, a in enumerate(node.args)] + [
                    (-1, kw.arg, kw.value)
                    for kw in node.keywords
                    if kw.arg is not None
                ]
                for pos, keyword, arg in args:
                    if not self.expr_tainted(arg, state):
                        continue
                    for target in site.targets:
                        param = self._callee_param(target, node, pos, keyword)
                        if param is not None:
                            events.param_taint.append((target, param))
                        callee = self.project.functions.get(target)
                        if callee is not None and is_seed_scoped(
                            callee.relpath
                        ):
                            events.findings.append(
                                (
                                    node,
                                    "unseeded RNG flows into "
                                    f"{callee.relpath} via "
                                    f"{target.replace('repro.', '', 1)}()"
                                    f" (argument {param or pos + 1})",
                                )
                            )

    def replay(self, cfg, entry_states) -> _TaintEvents:
        events = _TaintEvents()
        for block in cfg.blocks:
            state = entry_states.get(block.index)
            if state is None:
                continue
            for stmt in block.statements:
                state = self.step(stmt, state, events)
        return events


@register_rule
class SeedFlowRule(Rule):
    """Every RNG reaching seed-scoped code descends from a seeded ctor.

    Interprocedural fixpoint: per-function taint (dataflow engine) +
    two global summaries — *returns-tainted* (the function can return
    an unseeded RNG) and *tainted parameters* (some caller passes one
    in).  Iterates until the summaries stabilise, then reports every
    call site where a tainted value crosses into a module under
    :data:`~repro.lint.policy.SEED_SCOPE_PREFIXES`.
    """

    rule_id = "seed-flow"
    severity = SEVERITY_ERROR
    uses_call_graph = True
    description = (
        "unseeded np.random.Generator/random.Random must not flow "
        "into codec/runtime code (--deep only)"
    )

    MAX_ITERATIONS = 12

    def check_project(self, project: Project) -> Iterator[Finding]:
        param_taint: Dict[str, FrozenSet[str]] = {}
        returns_tainted: Dict[str, bool] = {}
        cfgs = {
            qualname: build_cfg(fn.node)
            for qualname, fn in project.functions.items()
        }
        events_by_fn: Dict[str, _TaintEvents] = {}
        for _ in range(self.MAX_ITERATIONS):
            changed = False
            for qualname in sorted(project.functions):
                fn = project.functions[qualname]
                analysis = _FunctionTaint(
                    project, fn, param_taint, returns_tainted
                )
                entry_states = analysis.run(cfgs[qualname])
                events = analysis.replay(cfgs[qualname], entry_states)
                events_by_fn[qualname] = events
                if events.returns_tainted and not returns_tainted.get(
                    qualname, False
                ):
                    returns_tainted[qualname] = True
                    changed = True
                for callee, param in events.param_taint:
                    cur = param_taint.get(callee, frozenset())
                    if param not in cur:
                        param_taint[callee] = cur | {param}
                        changed = True
            if not changed:
                break
        for qualname in sorted(events_by_fn):
            fn = project.functions[qualname]
            for node, message in events_by_fn[qualname].findings:
                yield self.finding(fn.module, node, message)


# ----------------------------------------------------------------------
# lock-order
# ----------------------------------------------------------------------
LOCK_CONSTRUCTORS = frozenset(
    {"threading.Lock", "threading.RLock", "threading.Condition"}
)


def _collect_locks(project: Project) -> Tuple[
    Dict[str, Dict[str, str]], Dict[str, str]
]:
    """Lock attributes per class and module-global locks, in scope.

    Returns ``(class_locks, global_locks)``: ``class_locks[cls_qual]``
    maps attribute name → lock id (``ClassName.attr``);
    ``global_locks`` maps ``module_qual.NAME`` → lock id.
    """
    class_locks: Dict[str, Dict[str, str]] = {}
    global_locks: Dict[str, str] = {}
    for cls_qual, cls in project.classes.items():
        if not is_lock_scoped(cls.module.relpath):
            continue
        for method in cls.methods.values():
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                if cls.module.resolve_call(node.value) not in LOCK_CONSTRUCTORS:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        class_locks.setdefault(cls_qual, {})[target.attr] = (
                            f"{cls.name}.{target.attr}"
                        )
    for relpath, module in project.modules.items():
        if not is_lock_scoped(relpath):
            continue
        for node in module.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            if module.resolve_call(node.value) not in LOCK_CONSTRUCTORS:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    short = relpath.rsplit("/", 1)[-1][:-3]
                    global_locks[target.id] = f"{short}.{target.id}"
    return class_locks, global_locks


class _LockGraph:
    def __init__(self) -> None:
        # edge -> (module, node) anchor of the acquisition that made it
        self.edges: Dict[Tuple[str, str], Tuple[ModuleSource, ast.AST, str]] = {}

    def add(
        self,
        held: str,
        acquired: str,
        module: ModuleSource,
        node: ast.AST,
        how: str,
    ) -> None:
        if held == acquired:
            return  # re-entrancy is RLock's business, not ordering
        self.edges.setdefault((held, acquired), (module, node, how))

    def successors(self, lock: str) -> List[str]:
        return sorted(b for (a, b) in self.edges if a == lock)

    def cycles(self) -> List[List[str]]:
        """Simple cycles, each reported once in canonical rotation."""
        found: Set[Tuple[str, ...]] = set()
        out: List[List[str]] = []
        nodes = sorted({a for a, _ in self.edges} | {b for _, b in self.edges})

        def dfs(start: str, cur: str, path: List[str]) -> None:
            for nxt in self.successors(cur):
                if nxt == start:
                    cycle = path[:]
                    pivot = cycle.index(min(cycle))
                    canon = tuple(cycle[pivot:] + cycle[:pivot])
                    if canon not in found:
                        found.add(canon)
                        out.append(list(canon))
                elif nxt not in path and nxt > start:
                    # only walk nodes ordered after start: each cycle is
                    # then discovered exactly once, from its minimum
                    dfs(start, nxt, path + [nxt])

        for node in nodes:
            dfs(node, node, [node])
        return out


@register_rule
class LockOrderRule(Rule):
    """Consistent lock order and no blocking calls under a lock.

    Scope: :data:`~repro.lint.policy.LOCK_SCOPE_PREFIXES` (the runtime
    layer).  Acquisition edges come from ``with`` blocks: lexically
    nested ``with`` on another lock, or a call — followed transitively
    through the project call graph — into a function that acquires
    one.  Findings:

    * a cycle in the acquisition graph (potential deadlock between
      driver and worker threads), reported once per cycle;
    * a blocking primitive (socket send/recv, ``time.sleep``,
      subprocess waits) called directly while a lock is held — every
      other acquirer stalls behind the slow operation.

    ``lock.acquire()`` outside a ``with`` is not tracked; the runtime
    style is ``with``-only.  Self-edges (re-entrant acquisition) are
    ignored.
    """

    rule_id = "lock-order"
    severity = SEVERITY_ERROR
    uses_call_graph = True
    description = (
        "no lock-acquisition cycles or lock-held blocking calls in "
        "the runtime (--deep only)"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        class_locks, global_locks = _collect_locks(project)
        self._locks_reachable_cache: Dict[str, FrozenSet[str]] = {}

        def direct_locks(fn: FunctionNode) -> Set[str]:
            out: Set[str] = set()
            for node in ast.walk(fn.node):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        lock = self._lock_of(
                            fn, item.context_expr, class_locks, global_locks,
                            project,
                        )
                        if lock is not None:
                            out.add(lock)
            return out

        self._direct = {
            q: direct_locks(fn) for q, fn in project.functions.items()
        }

        def locks_reachable(qualname: str) -> FrozenSet[str]:
            cached = self._locks_reachable_cache.get(qualname)
            if cached is not None:
                return cached
            out: Set[str] = set()
            for reached in project.reachable([qualname]):
                out |= self._direct.get(reached, set())
            result = frozenset(out)
            self._locks_reachable_cache[qualname] = result
            return result

        graph = _LockGraph()
        blocking: List[Finding] = []
        for qualname in sorted(project.functions):
            fn = project.functions[qualname]
            if not is_lock_scoped(fn.relpath):
                continue
            sites = {id(site.node): site for site in fn.call_sites}
            self._walk_stmts(
                fn, getattr(fn.node, "body", []), [], class_locks,
                global_locks, project, graph, sites, locks_reachable,
                blocking,
            )
        for finding in blocking:
            yield finding
        for cycle in graph.cycles():
            first_edge = (cycle[0], cycle[1] if len(cycle) > 1 else cycle[0])
            module, node, how = graph.edges.get(
                first_edge, next(iter(graph.edges.values()))
            )
            chain = " -> ".join(cycle + [cycle[0]])
            yield self.finding(
                module, node,
                f"lock-order cycle: {chain} (first edge acquired {how}) — "
                "two threads taking these locks in different orders "
                "deadlock",
            )

    # ------------------------------------------------------------------
    def _lock_of(
        self,
        fn: FunctionNode,
        expr: ast.expr,
        class_locks: Dict[str, Dict[str, str]],
        global_locks: Dict[str, str],
        project: Project,
    ) -> Optional[str]:
        name = dotted_name(expr)
        if name is None:
            return None
        if name.startswith("self.") and fn.cls is not None:
            attr = name[len("self."):]
            for cls in project.mro(fn.cls):
                lock = class_locks.get(cls, {}).get(attr)
                if lock is not None:
                    return lock
            return None
        return global_locks.get(name)

    def _walk_stmts(
        self,
        fn: FunctionNode,
        stmts,
        held: List[str],
        class_locks,
        global_locks,
        project: Project,
        graph: _LockGraph,
        sites: Dict[int, CallSite],
        locks_reachable,
        blocking: List[Finding],
    ) -> None:
        def recurse(body, held_now) -> None:
            self._walk_stmts(
                fn, body, held_now, class_locks, global_locks, project,
                graph, sites, locks_reachable, blocking,
            )

        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired = []
                for item in stmt.items:
                    lock = self._lock_of(
                        fn, item.context_expr, class_locks, global_locks,
                        project,
                    )
                    if lock is not None:
                        acquired.append(lock)
                    elif held:
                        # a non-lock context manager entered while held
                        self._scan_calls(
                            fn, item.context_expr, held, project, graph,
                            sites, locks_reachable, blocking,
                        )
                for lock in acquired:
                    for holder in held:
                        graph.add(holder, lock, fn.module, stmt, "lexically")
                recurse(stmt.body, held + acquired)
                continue
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                # nested definitions run later, not under this lock
                recurse(stmt.body, [])
                continue
            if held:
                for part in _stmt_scan_parts(stmt):
                    self._scan_calls(
                        fn, part, held, project, graph, sites,
                        locks_reachable, blocking,
                    )
            for attr in ("body", "orelse", "finalbody"):
                recurse(getattr(stmt, attr, []), held)
            for handler in getattr(stmt, "handlers", []):
                recurse(handler.body, held)

    def _scan_calls(
        self, fn, root, held, project, graph, sites, locks_reachable,
        blocking,
    ) -> None:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            site = sites.get(id(node))
            if site is None:
                continue
            reason = site_blocking_reason(fn, site)
            if reason:
                for holder in held:
                    blocking.append(
                        self.finding(
                            fn.module, node,
                            f"{reason} while holding {holder}; every "
                            "other acquirer stalls behind it",
                        )
                    )
            for target in site.targets:
                for lock in sorted(locks_reachable(target)):
                    for holder in held:
                        graph.add(
                            holder, lock, fn.module, node,
                            f"via call to "
                            f"{target.replace('repro.', '', 1)}",
                        )
