"""Event-loop discipline: nothing the reactor runs may block.

The ``aio`` transport multiplexes every worker socket on one
``selectors`` loop pumped by the calling thread.  A single blocking
call that loop runs — a ``sock.recv()`` on a socket that happens to
have no data, a ``time.sleep`` "just while debugging", a
``queue.Queue.get()``, a ``subprocess.run`` — stalls *every*
connection at once, which is precisely the failure mode the
event-driven backend exists to remove.  The only place reactor code is
allowed to wait is ``selector.select(timeout)``.

``async-discipline`` applies one blocking list at two reaches:

* on every run, to each call written in a module of
  :data:`~repro.lint.policy.ASYNC_MODULES` (module-level code
  included), plus any ``queue`` import there;
* under ``repro lint --deep``, to every function outside those modules
  that the reactor reaches over the project call graph, with the call
  chain from the reactor in the message: a helper in ``util.py`` that
  calls ``time.sleep`` is legal text in ``util.py``, but if the event
  loop can reach it, the reactor stalls just the same.

The check is deliberately syntactic: it flags the APIs whose
*presence* on the reactor is near-certainly a blocking bug rather than
trying to prove blocking-ness.  Non-blocking socket idioms
(``recv_into`` on an ``O_NONBLOCK`` socket, ``sendmsg``, ``accept``
under ``BlockingIOError`` handling, ``setblocking``) stay legal.  The
same list tells ``lock-order`` which calls stall a lock's other
acquirers.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .callgraph import CallSite, FunctionNode, Project, format_call_path
from .framework import (
    Finding,
    ModuleSource,
    Rule,
    SEVERITY_ERROR,
    register_rule,
)
from .policy import ASYNC_MODULES

__all__ = ["AsyncDisciplineRule", "blocking_reason", "site_blocking_reason"]

#: Dotted calls that block the calling thread outright.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "select.select",  # reactor modules go through selectors
        "socket.create_connection",
        "socket.getaddrinfo",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "os.waitpid",
        "os.wait",
        "signal.pause",
    }
)

#: Method names that block on a socket (or install the blocking-socket
#: idiom, like a socket timeout); the non-blocking counterparts
#: (recv_into / sendmsg / send / accept / setblocking) are not listed.
BLOCKING_METHODS = frozenset(
    {"recv", "recvfrom", "sendall", "makefile", "settimeout"}
)

#: Queue methods that block by default — only meaningful when the
#: module imports ``queue`` (``dict.get`` and friends would otherwise
#: drown the rule in false positives).
QUEUE_METHODS = frozenset({"get", "put", "join"})


def _imports_queue(module: ModuleSource) -> bool:
    if "queue" in module.import_aliases.values():
        return True
    return any(
        src.lstrip(".") == "queue" for src, _ in module.from_imports.values()
    )


def blocking_reason(
    name: Optional[str], method: Optional[str], module: ModuleSource
) -> str:
    """Why a call in ``module`` blocks, or '' if it does not.

    ``name`` is the call's resolved dotted name, ``method`` the
    attribute it calls, if any.
    """
    if name in BLOCKING_CALLS:
        return f"{name}() blocks the calling thread"
    if method in BLOCKING_METHODS:
        return f".{method}() is a blocking-socket call"
    if method in QUEUE_METHODS and _imports_queue(module):
        return f".{method}() on a queue blocks by default"
    return ""


def site_blocking_reason(fn: FunctionNode, site: CallSite) -> str:
    """:func:`blocking_reason` of one call site of the call graph."""
    method = site.method
    if method is None and site.external is not None and "." in site.external:
        method = site.external.rsplit(".", 1)[1]
    return blocking_reason(site.external, method, fn.module)


@register_rule
class AsyncDisciplineRule(Rule):
    """No blocking call on the event loop.

    Flags, inside :data:`~repro.lint.policy.ASYNC_MODULES`:

    * the blocking calls of :data:`BLOCKING_CALLS` — ``time.sleep``,
      ``select.select`` (reactors use the ``selectors`` API), blocking
      connects and name lookups, subprocess and child-process waits;
    * ``import queue`` / ``from queue import ...`` — its ``get``/``put``
      block by default and have no place on an event loop;
    * blocking socket methods: ``.recv()``, ``.recvfrom()``,
      ``.sendall()``, ``.makefile()``, and ``.settimeout()`` (the
      blocking-socket idiom itself — reactor sockets are
      ``setblocking(False)`` and wait only in ``selector.select``).

    Under ``--deep`` the roots are all functions defined in those
    modules, and the same calls are flagged in every function outside
    them that the roots reach.  Unresolvable dynamic dispatch is
    counted in the coverage line as blind spots.
    """

    rule_id = "async-discipline"
    severity = SEVERITY_ERROR
    uses_call_graph = True
    description = (
        "no blocking calls (socket.recv, time.sleep, queue.Queue, "
        "subprocess, ...) on the event loop; wait only in "
        "selector.select (--deep: also calls the reactor reaches)"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.relpath not in ASYNC_MODULES:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "queue":
                        yield self.finding(
                            module, node,
                            "import queue in a reactor module: Queue.get/"
                            "put block the event loop",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "queue" and node.level == 0:
                    yield self.finding(
                        module, node,
                        "from queue import ... in a reactor module: "
                        "Queue.get/put block the event loop",
                    )
            elif isinstance(node, ast.Call):
                method = (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute) else None
                )
                reason = blocking_reason(
                    module.resolve_call(node), method, module
                )
                if reason:
                    yield self.finding(
                        module, node,
                        f"{reason}; the reactor may wait only in "
                        "selector.select(timeout)",
                    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        roots = project.functions_in(ASYNC_MODULES)
        for qualname in sorted(project.reachable(roots)):
            fn = project.functions[qualname]
            if fn.relpath in ASYNC_MODULES:
                continue  # check() reports every call written there
            for site in fn.call_sites:
                reason = site_blocking_reason(fn, site)
                if not reason:
                    continue
                path = project.call_path(roots, qualname) or [qualname]
                yield self.finding(
                    fn.module, site.node,
                    f"{reason}, and the reactor reaches it: "
                    f"{format_call_path(path)}",
                )
