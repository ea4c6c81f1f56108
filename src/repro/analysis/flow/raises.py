"""Exception-flow analysis: undeclared non-ReproError escapes (REP011).

The library's error contract (``docs/api.md``, ``repro.exceptions``) is
that every failure a caller can see derives from :class:`ReproError`, so
``except ReproError`` is a complete guard.  Lint rule REP001 catches the
direct violations (``raise ValueError`` in library code) but is blind to
*escape paths*: a private helper that raises ``KeyError`` which a public
entry point re-exports unhandled breaks the contract just as surely.

This analysis computes, per function, the set of exception class names
that can escape it:

* a ``raise Name(...)`` contributes its name **unless** an enclosing
  ``try`` catches it — matching is hierarchy-aware (the class map built
  from :mod:`repro.exceptions` knows ``OutOfBoundsError`` is caught
  by ``except ReproError`` *and* by ``except IndexError``);
* a ``self.method()`` call imports the callee's escaping set (filtered
  through the same enclosing handlers) — resolved per class and iterated
  to a fixed point, so chains of private helpers propagate;
* bare ``raise`` (re-raise) and raises of non-literal expressions are
  ignored (unknowable statically).

A *public* entry point (name without a leading underscore) is flagged
when an escaping exception is neither rooted in ``ReproError`` nor
declared in its docstring (a mention of the class name — typically in a
``Raises:`` section — is the documented-contract escape hatch).
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field

from .dataflow import fixpoint
from .findings import FlowFinding

__all__ = ["exception_hierarchy", "EscapeAnalyzer"]

#: Exceptions that are part of Python's protocol vocabulary rather than
#: failure reporting; escaping these is never a contract violation.
_PROTOCOL_EXCEPTIONS = frozenset(
    {"NotImplementedError", "StopIteration", "GeneratorExit", "KeyboardInterrupt"}
)


def exception_hierarchy() -> dict[str, frozenset[str]]:
    """Map every known exception name to its ancestor names.

    Built live from :mod:`repro.exceptions` (so a new error class is
    known the moment it exists) plus the builtin exception classes.  The
    ancestor sets drive hierarchy-aware handler matching: ``KeyError``
    maps to ``{KeyError, LookupError, Exception, BaseException}``.
    """
    from ... import exceptions as repro_exceptions

    classes: dict[str, type] = {}
    for name in dir(builtins):
        value = getattr(builtins, name)
        if isinstance(value, type) and issubclass(value, BaseException):
            classes[name] = value
    for name in getattr(repro_exceptions, "__all__", []):
        value = getattr(repro_exceptions, name, None)
        if isinstance(value, type) and issubclass(value, BaseException):
            classes[name] = value

    hierarchy: dict[str, frozenset[str]] = {}
    for name, cls in classes.items():
        hierarchy[name] = frozenset(
            ancestor.__name__
            for ancestor in cls.__mro__
            if issubclass(ancestor, BaseException)
        )
    return hierarchy


def _repro_rooted() -> frozenset[str]:
    """Names of every exception class rooted in ``ReproError``."""
    from ... import exceptions as repro_exceptions

    rooted = set()
    for name in getattr(repro_exceptions, "__all__", []):
        value = getattr(repro_exceptions, name, None)
        if (
            isinstance(value, type)
            and issubclass(value, repro_exceptions.ReproError)
        ):
            rooted.add(name)
    return frozenset(rooted)


def _handler_names(handler: ast.ExceptHandler) -> list[str] | None:
    """Class names a handler catches; ``None`` means catch-everything."""
    if handler.type is None:
        return None
    names: list[str] = []
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for node in types:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


@dataclass
class _RaiseSite:
    name: str
    lineno: int
    #: Handler name-lists of every enclosing try (innermost last).
    guards: list[list[str] | None]


@dataclass
class _CallSite:
    callee: str
    lineno: int
    guards: list[list[str] | None]


@dataclass
class _FunctionEscapes:
    qualname: str
    lineno: int
    docstring: str
    raises: list[_RaiseSite] = field(default_factory=list)
    calls: list[_CallSite] = field(default_factory=list)


class _Collector(ast.NodeVisitor):
    """Gather raise sites and self-calls with their enclosing handlers."""

    def __init__(self, record: _FunctionEscapes) -> None:
        self.record = record
        self.guards: list[list[str] | None] = []

    def visit_Try(self, node: ast.Try) -> None:
        collected: list[str] = []
        flattened: list[str] | None = collected
        for handler in node.handlers:
            names = _handler_names(handler)
            if names is None:
                flattened = None
                break
            collected.extend(names)
        self.guards.append(flattened)
        for stmt in node.body:
            self.visit(stmt)
        self.guards.pop()
        # Handler bodies, else, and finally run outside the protection.
        for handler in node.handlers:
            for stmt in handler.body:
                self.visit(stmt)
        for stmt in node.orelse + node.finalbody:
            self.visit(stmt)

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = None
        if isinstance(exc, ast.Name):
            name = exc.id
        elif isinstance(exc, ast.Attribute):
            name = exc.attr
        if name is not None:
            self.record.raises.append(
                _RaiseSite(name, node.lineno, list(self.guards))
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            self.record.calls.append(
                _CallSite(func.attr, node.lineno, list(self.guards))
            )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return  # nested defs run later, under their own contract

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return


class EscapeAnalyzer:
    """Per-class escaping-exception fixed point + REP011 reporting."""

    def __init__(self) -> None:
        self.hierarchy = exception_hierarchy()
        self.rooted = _repro_rooted()

    def _caught(self, name: str, guards: list[list[str] | None]) -> bool:
        ancestors = self.hierarchy.get(name, frozenset({name, "Exception"}))
        for handler_names in guards:
            if handler_names is None:
                return True  # bare except / except BaseException
            for caught in handler_names:
                if caught == name or caught in ancestors:
                    return True
        return False

    def analyze_module(self, tree: ast.Module, path: str) -> list[FlowFinding]:
        findings: list[FlowFinding] = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods = [
                    stmt
                    for stmt in node.body
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
                findings.extend(self._analyze_scope(methods, node.name, path))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._analyze_scope([node], None, path))
        return findings

    def _analyze_scope(
        self,
        functions: list[ast.FunctionDef | ast.AsyncFunctionDef],
        class_name: str | None,
        path: str,
    ) -> list[FlowFinding]:
        records: dict[str, _FunctionEscapes] = {}
        for function in functions:
            qualname = (
                f"{class_name}.{function.name}" if class_name else function.name
            )
            record = _FunctionEscapes(
                qualname, function.lineno, ast.get_docstring(function) or ""
            )
            collector = _Collector(record)
            # Visit the body, not the def itself — visit_FunctionDef is
            # the *nested*-def barrier and would skip everything.
            for statement in function.body:
                collector.visit(statement)
            records[function.name] = record

        names = sorted(records)

        def step(
            name: str, states: dict[str, frozenset[str]]
        ) -> frozenset[str]:
            record = records[name]
            escaping = set()
            for site in record.raises:
                if not self._caught(site.name, site.guards):
                    escaping.add(site.name)
            for call in record.calls:
                if call.callee not in records:
                    continue  # inherited / external: out of scope
                for escaped in states[call.callee]:
                    if not self._caught(escaped, call.guards):
                        escaping.add(escaped)
            return frozenset(escaping)

        escapes = fixpoint(names, lambda name: frozenset(), step)

        findings: list[FlowFinding] = []
        for name in names:
            if name.startswith("_"):
                continue  # only public entry points carry the contract
            record = records[name]
            for escaped in sorted(escapes[name]):
                if escaped in self.rooted or escaped in _PROTOCOL_EXCEPTIONS:
                    continue
                if escaped in record.docstring:
                    continue  # documented contract
                line = self._escape_line(records, name, escaped)
                findings.append(
                    FlowFinding(
                        path,
                        line if line is not None else record.lineno,
                        "REP011",
                        record.qualname,
                        f"{escaped} can escape this public entry point — "
                        f"wrap it in the ReproError hierarchy or declare it "
                        f"in the docstring's Raises section",
                    )
                )
        return findings

    @staticmethod
    def _escape_line(
        records: dict[str, _FunctionEscapes], name: str, escaped: str
    ) -> int | None:
        """The nearest raise site of ``escaped`` starting from ``name``."""
        seen: set[str] = set()
        queue = [name]
        while queue:
            current = queue.pop(0)
            if current in seen or current not in records:
                continue
            seen.add(current)
            for site in records[current].raises:
                if site.name == escaped:
                    return site.lineno
            queue.extend(call.callee for call in records[current].calls)
        return None
