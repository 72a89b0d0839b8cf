"""Per-function control-flow graphs and a forward dataflow engine.

The call graph (:mod:`repro.lint.callgraph`) answers *what can call
what*; this module answers *what values flow where inside one
function*.  It deliberately stays small:

* :func:`build_cfg` lowers a function body to basic blocks with
  explicit successor edges, handling ``if``/``while``/``for``/
  ``try``/``with``/``return``/``break``/``continue``/``raise`` —
  enough to make branch joins honest for a *may* analysis;
* :class:`ForwardAnalysis` is a classic worklist solver: subclasses
  provide the lattice (``initial_state`` / ``join`` / ``transfer``)
  and get per-block entry states at the fixpoint.

The ``seed-flow`` rule instantiates it with a may-taint domain
(variable → tainted-RNG provenance); anything else that needs a flow
fact later (escaping buffers, version pinning) plugs in the same way.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Generic, List, Optional, Sequence, Set, TypeVar

__all__ = ["BasicBlock", "CFG", "build_cfg", "ForwardAnalysis"]


@dataclass
class BasicBlock:
    """A straight-line run of statements with explicit successors."""

    index: int
    statements: List[ast.stmt] = field(default_factory=list)
    successors: Set[int] = field(default_factory=set)

    def add_successor(self, other: "BasicBlock") -> None:
        self.successors.add(other.index)


class CFG:
    """Control-flow graph of one function body."""

    def __init__(self) -> None:
        self.blocks: List[BasicBlock] = []
        self.entry = self.new_block()
        self.exit = self.new_block()

    def new_block(self) -> BasicBlock:
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block


class _CFGBuilder:
    """Lowers a statement list onto a :class:`CFG`.

    ``try`` handling is conservative for a may-analysis: the protected
    body may jump to every handler at any point, so the handler joins
    the state from the body's entry *and* exit.  ``with`` bodies run
    unconditionally (context managers that suppress are out of scope).
    """

    def __init__(self) -> None:
        self.cfg = CFG()
        # (break target, continue target) stack for loops
        self.loop_stack: List[tuple] = []

    def build(self, body: Sequence[ast.stmt]) -> CFG:
        end = self._lower(body, self.cfg.blocks[self.cfg.entry.index])
        end.add_successor(self.cfg.exit)
        return self.cfg

    def _lower(self, body: Sequence[ast.stmt], cur: BasicBlock) -> BasicBlock:
        for stmt in body:
            cur = self._lower_stmt(stmt, cur)
        return cur

    def _lower_stmt(self, stmt: ast.stmt, cur: BasicBlock) -> BasicBlock:
        if isinstance(stmt, ast.If):
            cur.statements.append(stmt)  # carries the test expression
            then_block = self.cfg.new_block()
            cur.add_successor(then_block)
            then_end = self._lower(stmt.body, then_block)
            after = self.cfg.new_block()
            then_end.add_successor(after)
            if stmt.orelse:
                else_block = self.cfg.new_block()
                cur.add_successor(else_block)
                self._lower(stmt.orelse, else_block).add_successor(after)
            else:
                cur.add_successor(after)
            return after
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head = self.cfg.new_block()
            head.statements.append(stmt)  # test / iterable evaluation
            cur.add_successor(head)
            after = self.cfg.new_block()
            head.add_successor(after)  # zero-iteration path
            body_block = self.cfg.new_block()
            head.add_successor(body_block)
            self.loop_stack.append((after, head))
            body_end = self._lower(stmt.body, body_block)
            self.loop_stack.pop()
            body_end.add_successor(head)
            if stmt.orelse:
                else_block = self.cfg.new_block()
                head.add_successor(else_block)
                self._lower(stmt.orelse, else_block).add_successor(after)
            return after
        if isinstance(stmt, ast.Try):
            body_entry = self.cfg.new_block()
            cur.add_successor(body_entry)
            body_end = self._lower(stmt.body, body_entry)
            after = self.cfg.new_block()
            else_end = body_end
            if stmt.orelse:
                else_block = self.cfg.new_block()
                body_end.add_successor(else_block)
                else_end = self._lower(stmt.orelse, else_block)
            for handler in stmt.handlers:
                handler_block = self.cfg.new_block()
                # an exception may fire before or after any body stmt
                body_entry.add_successor(handler_block)
                body_end.add_successor(handler_block)
                self._lower(handler.body, handler_block).add_successor(after)
            if stmt.finalbody:
                final_block = self.cfg.new_block()
                else_end.add_successor(final_block)
                final_end = self._lower(stmt.finalbody, final_block)
                final_end.add_successor(after)
            else:
                else_end.add_successor(after)
            return after
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            cur.statements.append(stmt)  # context-manager expressions
            body_block = self.cfg.new_block()
            cur.add_successor(body_block)
            body_end = self._lower(stmt.body, body_block)
            after = self.cfg.new_block()
            body_end.add_successor(after)
            return after
        if isinstance(stmt, ast.Return):
            cur.statements.append(stmt)
            cur.add_successor(self.cfg.exit)
            return self.cfg.new_block()  # unreachable continuation
        if isinstance(stmt, ast.Raise):
            cur.statements.append(stmt)
            cur.add_successor(self.cfg.exit)
            return self.cfg.new_block()
        if isinstance(stmt, ast.Break):
            if self.loop_stack:
                cur.add_successor(self.loop_stack[-1][0])
            return self.cfg.new_block()
        if isinstance(stmt, ast.Continue):
            if self.loop_stack:
                cur.add_successor(self.loop_stack[-1][1])
            return self.cfg.new_block()
        cur.statements.append(stmt)
        return cur


def build_cfg(fn_node: ast.AST) -> CFG:
    """CFG for a function definition (or any object with ``.body``)."""
    body = getattr(fn_node, "body", [])
    return _CFGBuilder().build(body)


S = TypeVar("S")


class ForwardAnalysis(Generic[S]):
    """Worklist fixpoint solver over a :class:`CFG`.

    Subclasses define the lattice:

    * :meth:`initial_state` — the entry fact (e.g. parameter taint);
    * :meth:`join` — least upper bound of predecessor exit states;
    * :meth:`transfer` — push a fact through one block's statements.

    States must be comparable with ``==`` (termination check); the
    domain must have finite ascending chains (sets over program
    variables do).
    """

    def initial_state(self) -> S:
        raise NotImplementedError

    def join(self, states: List[S]) -> S:
        raise NotImplementedError

    def transfer(self, block: BasicBlock, state: S) -> S:
        raise NotImplementedError

    def run(self, cfg: CFG) -> Dict[int, S]:
        """Solve to fixpoint; returns the entry state of every block."""
        preds: Dict[int, List[int]] = {b.index: [] for b in cfg.blocks}
        for block in cfg.blocks:
            for succ in block.successors:
                preds[succ].append(block.index)
        entry_states: Dict[int, S] = {cfg.entry.index: self.initial_state()}
        exit_states: Dict[int, S] = {}
        worklist = [cfg.entry.index]
        while worklist:
            index = worklist.pop(0)
            block = cfg.blocks[index]
            incoming = [
                exit_states[p] for p in preds[index] if p in exit_states
            ]
            if index == cfg.entry.index:
                incoming.append(self.initial_state())
            state = (
                self.join(incoming) if incoming else self.initial_state()
            )
            entry_states[index] = state
            new_exit = self.transfer(block, state)
            if exit_states.get(index) == new_exit and index in exit_states:
                continue
            exit_states[index] = new_exit
            for succ in sorted(block.successors):
                if succ not in worklist:
                    worklist.append(succ)
        return entry_states
