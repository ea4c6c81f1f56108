"""Lock-state dataflow analysis: unguarded writes and lock-order cycles.

Two rules ride on one forward *must* analysis over the CFG of every
function in the engine package:

* **REP009 unguarded-write-dataflow** — the analysis tracks, at every
  program point, the set of locks that are held on **every** path
  reaching it (``with ..._lock:`` adds, leaving the block removes, joins
  intersect) together with the local names that *must-alias* a guarded
  shared attribute.  A mutation of guarded state — directly
  (``self._epochs[i] += 1``) or through an alias (``c = self._cache;
  c[key] = value``, invisible to a lexical scan) — reachable with an
  **empty** lock set is a data race with the executor's reader threads
  and is flagged.
* **REP010 lock-order-cycle** — every lock acquisition observed while
  other locks are held contributes ``held -> acquired`` edges to a
  cross-function acquisition-order graph; ``self.method()`` calls
  propagate the callee's transitive acquisitions to the caller's held
  set (a call-graph fixed point).  A cycle in the graph means two
  threads can acquire the same locks in opposite orders — the classic
  ABBA deadlock — and is reported once per strongly-connected component.

Functions named ``_locked_*`` are analysed with a synthetic caller-held
lock (their naming contract: the caller holds the engine lock);
``__init__`` is skipped (construction precedes sharing).  Nested
functions are analysed with the lock state captured at their definition
point, matching how the engine's fan-out closures are created under the
request lock.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .cfg import BasicBlock, ControlFlowGraph, Statement, WithEnter, WithExit, build_cfg
from .dataflow import UNREACHED, fixpoint, solve_forward
from .findings import FlowFinding

__all__ = ["GUARDED_ATTRS", "LockState", "LockAnalyzer"]

#: Attributes holding shared mutable serving state, including the
#: process executor's worker-lane table.
GUARDED_ATTRS = frozenset({"_epochs", "_cache", "_breakers", "_lanes"})

#: Synthetic lock representing "the caller holds the engine lock" for
#: ``_locked_*`` helpers.  Never contributes order-graph edges.
ENTRY_LOCK = "<caller>"


@dataclass(frozen=True)
class LockState:
    """Must-hold lock set plus must-alias bindings at one program point."""

    locks: frozenset[str] = frozenset()
    aliases: frozenset[tuple[str, str]] = frozenset()  # (local name, guarded attr)

    def alias_of(self, name: str) -> str | None:
        for local, attr in self.aliases:
            if local == name:
                return attr
        return None


def _join(left: LockState, right: LockState) -> LockState:
    return LockState(left.locks & right.locks, left.aliases & right.aliases)


def _dotted(expr: ast.expr) -> str | None:
    """``self._lock`` / ``cache_lock`` as a dotted string, else None."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = _dotted(expr.value)
        return f"{base}.{expr.attr}" if base is not None else None
    return None


def _lock_name(item: ast.withitem) -> str | None:
    """The lock a ``with`` item acquires, or None for non-lock contexts."""
    expr = item.context_expr
    if isinstance(expr, ast.Call):
        expr = expr.func
    name = _dotted(expr)
    if name is not None and name.split(".")[-1].endswith("lock"):
        return name
    return None


def _walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function bodies."""
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(current))


@dataclass
class _Mutation:
    lineno: int
    attr: str
    via: str | None  # alias name when the write went through one


@dataclass
class _FunctionFacts:
    """Everything one function contributes to the cross-function stage."""

    qualname: str
    unguarded: list[_Mutation] = field(default_factory=list)
    #: (held locks, acquired lock, lineno) per acquisition point.
    acquisitions: list[tuple[frozenset[str], str, int]] = field(default_factory=list)
    #: (held locks, callee short name, lineno) per ``self.x()`` call.
    self_calls: list[tuple[frozenset[str], str, int]] = field(default_factory=list)
    acquires: frozenset[str] = frozenset()


class _FunctionAnalysis:
    """One function's lock dataflow: solve, then replay to collect events."""

    def __init__(
        self,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        entry_locks: frozenset[str],
        guarded: frozenset[str],
    ) -> None:
        self.function = function
        self.facts = _FunctionFacts(qualname)
        self.guarded = guarded
        #: Nested functions queued with the lock state at their def site.
        self.nested: list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, frozenset[str]]] = []
        self._collect = False
        cfg = build_cfg(function)
        states = solve_forward(
            cfg, self._transfer_block, LockState(locks=entry_locks), _join
        )
        self._collect = True
        for block in cfg.blocks:
            in_state = states[block.index]
            if in_state is UNREACHED or not isinstance(in_state, LockState):
                continue
            self._transfer_block(block, in_state)

    # -- transfer ------------------------------------------------------

    def _transfer_block(self, block: BasicBlock, state: LockState) -> LockState:
        for statement in block.statements:
            state = self._transfer_statement(statement, state)
        return state

    def _transfer_statement(self, statement: Statement, state: LockState) -> LockState:
        if isinstance(statement, WithEnter):
            lock = _lock_name(statement.item)
            if lock is None:
                return self._scan(statement.item.context_expr, state, statement.lineno)
            if self._collect and lock not in state.locks:
                self.facts.acquisitions.append(
                    (state.locks, lock, statement.lineno)
                )
                self.facts.acquires |= {lock}
            return LockState(state.locks | {lock}, state.aliases)
        if isinstance(statement, WithExit):
            lock = _lock_name(statement.item)
            if lock is None:
                return state
            return LockState(state.locks - {lock}, state.aliases)

        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if self._collect:
                self.nested.append((statement, state.locks))
            return self._kill(state, statement.name)
        if isinstance(statement, ast.ClassDef):
            return self._kill(state, statement.name)

        # Compound headers sit whole in their test block; scan only the
        # header expression — the body flows through its own blocks.
        if isinstance(statement, (ast.If, ast.While)):
            return self._scan(statement.test, state, statement.lineno)
        if isinstance(statement, (ast.For, ast.AsyncFor)):
            state = self._scan(statement.iter, state, statement.lineno)
            for node in ast.walk(statement.target):
                if isinstance(node, ast.Name):
                    state = self._kill(state, node.id)
            return state
        if isinstance(statement, ast.ExceptHandler):
            if statement.name is not None:
                state = self._kill(state, statement.name)
            return state

        state = self._scan(statement, state, getattr(statement, "lineno", 0))

        # Alias generation and kills come *after* the mutation scan so a
        # rebinding statement is judged under the bindings it started in.
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                state = self._assign_target(target, statement.value, state)
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            state = self._assign_target(statement.target, statement.value, state)
        elif isinstance(statement, ast.AugAssign):
            if isinstance(statement.target, ast.Name):
                state = self._kill(state, statement.target.id)
        return state

    def _assign_target(
        self, target: ast.expr, value: ast.expr, state: LockState
    ) -> LockState:
        if isinstance(target, ast.Name):
            state = self._kill(state, target.id)
            if isinstance(value, ast.Attribute) and value.attr in self.guarded:
                state = LockState(
                    state.locks, state.aliases | {(target.id, value.attr)}
                )
            elif isinstance(value, ast.Name):
                attr = state.alias_of(value.id)
                if attr is not None:
                    state = LockState(
                        state.locks, state.aliases | {(target.id, attr)}
                    )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    state = self._kill(state, element.id)
        return state

    @staticmethod
    def _kill(state: LockState, name: str) -> LockState:
        if state.alias_of(name) is None:
            return state
        return LockState(
            state.locks,
            frozenset(pair for pair in state.aliases if pair[0] != name),
        )

    # -- mutation scanning ---------------------------------------------

    def _scan(self, node: ast.AST, state: LockState, lineno: int) -> LockState:
        """Record guarded-state mutations and self-calls inside ``node``."""
        if not self._collect:
            return state
        for mutation in self._mutations(node, state):
            if not state.locks:
                self.facts.unguarded.append(mutation)
        for call in _walk_shallow(node):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "self"
            ):
                self.facts.self_calls.append(
                    (state.locks, call.func.attr, getattr(call, "lineno", lineno))
                )
        return state

    def _mutations(self, node: ast.AST, state: LockState) -> Iterable[_Mutation]:
        targets: list[ast.expr] = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                list(node.targets) if isinstance(node, ast.Assign) else [node.target]
            )
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            yield from self._target_mutation(target, state)
        for call in _walk_shallow(node):
            if not isinstance(call, ast.Call) or not isinstance(
                call.func, ast.Attribute
            ):
                continue
            receiver = call.func.value
            if isinstance(receiver, ast.Subscript):
                receiver = receiver.value
            lineno = getattr(call, "lineno", 0)
            if isinstance(receiver, ast.Attribute) and receiver.attr in self.guarded:
                yield _Mutation(lineno, receiver.attr, None)
            elif isinstance(receiver, ast.Name):
                attr = state.alias_of(receiver.id)
                if attr is not None:
                    yield _Mutation(lineno, attr, receiver.id)

    def _target_mutation(
        self, target: ast.expr, state: LockState
    ) -> Iterable[_Mutation]:
        # A bare Name target is a local rebind, not a mutation; anything
        # deeper (subscript / attribute) mutates the referenced object.
        if isinstance(target, ast.Name):
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._target_mutation(element, state)
            return
        for sub in ast.walk(target):
            if isinstance(sub, ast.Attribute) and sub.attr in self.guarded:
                yield _Mutation(getattr(target, "lineno", 0), sub.attr, None)
                return
        root = target
        while isinstance(root, (ast.Subscript, ast.Attribute, ast.Starred)):
            root = root.value
        if isinstance(root, ast.Name):
            attr = state.alias_of(root.id)
            if attr is not None:
                yield _Mutation(getattr(target, "lineno", 0), attr, root.id)


class LockAnalyzer:
    """Run the lock analysis over modules, then derive order-graph cycles.

    Usage: call :meth:`analyze_module` per module (collecting the REP009
    findings it returns), then :meth:`order_findings` once for the
    cross-module REP010 cycle report.
    """

    def __init__(self, guarded: frozenset[str] = GUARDED_ATTRS) -> None:
        self.guarded = guarded
        #: (path, class-scope facts) per analysed class/module scope.
        self._scopes: list[tuple[str, dict[str, _FunctionFacts]]] = []

    # -- per-module pass ------------------------------------------------

    def analyze_module(self, tree: ast.Module, path: str) -> list[FlowFinding]:
        findings: list[FlowFinding] = []
        module_scope: dict[str, _FunctionFacts] = {}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                class_scope: dict[str, _FunctionFacts] = {}
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        findings.extend(
                            self._analyze_function(
                                stmt, f"{node.name}.{stmt.name}", path, class_scope
                            )
                        )
                self._scopes.append((path, class_scope))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(
                    self._analyze_function(node, node.name, path, module_scope)
                )
        if module_scope:
            self._scopes.append((path, module_scope))
        return findings

    def _analyze_function(
        self,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        path: str,
        scope: dict[str, _FunctionFacts],
    ) -> list[FlowFinding]:
        if function.name == "__init__":
            return []
        entry = (
            frozenset({ENTRY_LOCK})
            if function.name.startswith("_locked_")
            else frozenset()
        )
        queue: list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str, frozenset[str]]]
        queue = [(function, qualname, entry)]
        findings: list[FlowFinding] = []
        while queue:
            node, name, entry_locks = queue.pop(0)
            analysis = _FunctionAnalysis(node, name, entry_locks, self.guarded)
            scope[node.name] = analysis.facts
            for mutation in analysis.facts.unguarded:
                through = f" through alias {mutation.via!r}" if mutation.via else ""
                findings.append(
                    FlowFinding(
                        path,
                        mutation.lineno,
                        "REP009",
                        name,
                        f"{mutation.attr} mutated{through} with no lock held "
                        f"on some path — guard with 'with ..._lock:' or move "
                        f"into a _locked_* helper",
                    )
                )
            for nested, captured in analysis.nested:
                queue.append((nested, f"{name}.<locals>.{nested.name}", captured))
        return findings

    # -- cross-function stage -------------------------------------------

    def order_findings(self) -> list[FlowFinding]:
        """REP010: cycles in the cross-function lock-acquisition graph."""
        edges: dict[tuple[str, str], tuple[str, int]] = {}

        for path, scope in self._scopes:
            # Transitive lock acquisitions per function, via the
            # same-scope ``self.x()`` call graph.
            names = sorted(scope)

            def step(
                name: str, states: dict[str, frozenset[str]]
            ) -> frozenset[str]:
                facts = scope[name]
                acquired = facts.acquires
                for _, callee, _ in facts.self_calls:
                    if callee in scope:
                        acquired = acquired | states[callee]
                return acquired

            closure = fixpoint(names, lambda name: scope[name].acquires, step)

            for name in names:
                facts = scope[name]
                for held, acquired, lineno in facts.acquisitions:
                    for holder in held:
                        self._edge(edges, holder, acquired, path, lineno)
                for held, callee, lineno in facts.self_calls:
                    if callee not in scope:
                        continue
                    for acquired in closure[callee]:
                        for holder in held:
                            self._edge(edges, holder, acquired, path, lineno)

        return self._cycles(edges)

    @staticmethod
    def _edge(
        edges: dict[tuple[str, str], tuple[str, int]],
        holder: str,
        acquired: str,
        path: str,
        lineno: int,
    ) -> None:
        if holder == ENTRY_LOCK or holder == acquired:
            return
        key = (holder, acquired)
        location = (path, lineno)
        if key not in edges or location < edges[key]:
            edges[key] = location

    @staticmethod
    def _cycles(
        edges: dict[tuple[str, str], tuple[str, int]]
    ) -> list[FlowFinding]:
        graph: dict[str, set[str]] = {}
        for holder, acquired in edges:
            graph.setdefault(holder, set()).add(acquired)
            graph.setdefault(acquired, set())

        # Tarjan SCC, iterative, over lexicographically sorted nodes so
        # component discovery (and so reporting) is deterministic.
        index_of: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        components: list[list[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work: list[tuple[str, Iterator[str]]] = [
                (root, iter(sorted(graph[root])))
            ]
            index_of[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for successor in successors:
                    if successor not in index_of:
                        index_of[successor] = low[successor] = counter[0]
                        counter[0] += 1
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append((successor, iter(sorted(graph[successor]))))
                        advanced = True
                        break
                    if successor in on_stack:
                        low[node] = min(low[node], index_of[successor])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index_of[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        components.append(sorted(component))

        for node in sorted(graph):
            if node not in index_of:
                strongconnect(node)

        findings: list[FlowFinding] = []
        for component in sorted(components):
            members = set(component)
            cycle_edges = sorted(
                (edges[key], key)
                for key in edges
                if key[0] in members and key[1] in members
            )
            (path, lineno), _ = cycle_edges[0]
            order = " -> ".join(component + [component[0]])
            findings.append(
                FlowFinding(
                    path,
                    lineno,
                    "REP010",
                    "<lock-order-graph>",
                    f"lock-acquisition-order cycle {order} — two threads "
                    f"taking these locks in opposite orders deadlock; pick "
                    f"one global order",
                )
            )
        return findings
