"""AST-based project-rule linter for the ``repro`` library.

Generic linters cannot know this project's contracts; this pass encodes
them.  Run it over library sources with::

    python -m repro.analysis.lint src/

Rules (suppress a line with ``# noqa: REPxxx``):

* **REP001 raw-exception** — library code must not raise bare
  :class:`ValueError` / :class:`KeyError` / :class:`IndexError`; use the
  :mod:`repro.exceptions` hierarchy (every class there multiply inherits
  the builtin, so callers keep working).
* **REP002 opcounter** — in a class that carries an operation counter
  (``self.stats`` / ``self._counter``), every cell-access method
  (``get``, ``add``, ``prefix_sum``, ...) must charge the counter,
  directly or by delegating to a method that does.  This is the paper's
  cost-model accounting: an uncharged read silently corrupts every
  benchmark built on :class:`~repro.counters.OpCounter`.
* **REP003 mutable-default** — no mutable default argument values.
* **REP004 bare-assert** — no ``assert`` statements in library code;
  asserts vanish under ``python -O`` and must not guard user-facing
  validation.  Raise :class:`~repro.exceptions.StructureError` (internal
  invariants) or a :class:`~repro.exceptions.ConfigurationError`-family
  error (user input) instead.
* **REP005 missing-all** — every public module must define ``__all__``
  so the public surface is explicit.
* **REP006 scalar-loop-batch** — a ``*_many`` batch method inside
  ``src/repro/core/`` or ``src/repro/methods/`` must not loop over its
  own scalar counterpart (``prefix_sum_many`` calling ``prefix_sum`` in
  a ``for``): the batch engine's whole point is shared work, and a
  hidden scalar loop silently forfeits it while looking batched.  The
  base-class defaults in ``methods/base.py`` are the sanctioned
  fallback and are exempt, and so is any loop lexically inside an
  ``if not self._use_batch_path(...):`` branch — that guard is the
  batch-crossover contract choosing the scalar path deliberately.
  Fallbacks taken through any other condition carry an explanatory
  ``noqa``.
* **REP008 direct-clock** — hot-path modules (``src/repro/core/``,
  ``src/repro/methods/``, ``src/repro/engine/``, plus
  ``src/repro/obs/remote.py``, which runs inside pool workers) must
  not call
  ``time.time`` / ``time.perf_counter`` / ``time.monotonic`` (or their
  ``_ns`` variants) or ``time.sleep`` directly, nor construct a clock
  of their own (``MonotonicClock()`` / ``ManualClock()``); all
  timestamps and sleeps flow through the injected observability clock
  (:mod:`repro.obs.clock`).  A direct clock read bypasses the
  :class:`~repro.obs.clock.ManualClock` the tests inject and silently
  re-introduces timing cost on paths that are supposed to be free when
  observability is disabled; a private clock is the same read in
  disguise (it is how a wall-clock decision could hide inside a
  kernel); a direct sleep (retry backoff, injected latency) would turn
  every deterministic virtual-time chaos test into a real-time one.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "LintFinding",
    "RULES",
    "lint_source",
    "lint_paths",
    "main",
]

#: Builtin exceptions that library code must wrap in the repro hierarchy.
_RAW_EXCEPTIONS = frozenset({"ValueError", "KeyError", "IndexError"})

#: Attribute names under which structures hold their OpCounter.
_COUNTER_ATTRS = frozenset({"stats", "_counter"})

#: Methods that, per the cost model, read or write stored cells.
_CHARGED_METHODS = frozenset(
    {
        "get",
        "set",
        "add",
        "add_many",
        "insert",
        "delete",
        "append",
        "prefix_sum",
        "prefix_sum_many",
        "range_sum",
        "range_sum_many",
        "apply_delta",
        "apply_delta_many",
        "row_value",
        "row_value_many",
        "subtotal",
    }
)

RULES = {
    "REP001": "raw builtin exception raised from library code",
    "REP002": "cell-access method does not charge the operation counter",
    "REP003": "mutable default argument",
    "REP004": "assert statement in library code",
    "REP005": "public module does not define __all__",
    "REP006": "*_many batch method loops over its own scalar operation",
    "REP008": "hot-path module reads the wall clock directly",
}


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _suppressed(source_lines: Sequence[str], line: int, rule: str) -> bool:
    """True when the flagged line carries a matching ``noqa`` pragma."""
    if not 1 <= line <= len(source_lines):
        return False
    text = source_lines[line - 1]
    marker = text.rfind("# noqa")
    if marker == -1:
        return False
    pragma = text[marker + len("# noqa") :].strip()
    if not pragma.startswith(":"):
        return True  # blanket noqa
    return rule in pragma[1:].replace(",", " ").split()


# ----------------------------------------------------------------------
# Individual rules
# ----------------------------------------------------------------------


def _check_raw_exceptions(tree: ast.Module) -> Iterable[tuple[int, str, str]]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in _RAW_EXCEPTIONS:
            yield (
                node.lineno,
                "REP001",
                f"raise {name} — use the repro.exceptions hierarchy "
                f"(e.g. ConfigurationError, InvalidShapeError)",
            )


def _check_mutable_defaults(tree: ast.Module) -> Iterable[tuple[int, str, str]]:
    mutable_calls = frozenset({"list", "dict", "set", "bytearray", "OrderedDict"})
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            bad = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in mutable_calls
            )
            if bad:
                yield (
                    default.lineno,
                    "REP003",
                    f"mutable default in {node.name}() — default to None "
                    f"and allocate inside the body",
                )


def _check_asserts(tree: ast.Module) -> Iterable[tuple[int, str, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield (
                node.lineno,
                "REP004",
                "assert vanishes under -O; raise StructureError or a "
                "ConfigurationError-family exception",
            )


def _check_module_all(
    tree: ast.Module, module_path: Path
) -> Iterable[tuple[int, str, str]]:
    name = module_path.name
    if name.startswith("_") and name != "__init__.py":
        return
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                return
    yield (1, "REP005", f"module {name} must define __all__")


# -- REP002: OpCounter accounting --------------------------------------


def _self_attr(node: ast.AST) -> str | None:
    """Attribute name when ``node`` is ``self.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


@dataclass
class _MethodFacts:
    lineno: int
    touches_counter: bool
    self_calls: set[str]
    trivial: bool
    abstract: bool


def _method_facts(method: ast.FunctionDef) -> _MethodFacts:
    touches = False
    self_calls: set[str] = set()
    for node in ast.walk(method):
        attr = _self_attr(node)
        if attr in _COUNTER_ATTRS:
            touches = True
        if isinstance(node, ast.Call):
            call_attr = _self_attr(node.func)
            if call_attr is not None:
                self_calls.add(call_attr)

    abstract = any(
        (isinstance(d, ast.Name) and d.id == "abstractmethod")
        or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        for d in method.decorator_list
    )
    body = method.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]  # drop docstring
    trivial = all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        or (
            isinstance(stmt, ast.Raise)
            and isinstance(stmt.exc, (ast.Call, ast.Name))
            and "NotImplementedError"
            in ast.dump(stmt.exc)
        )
        for stmt in body
    ) or not body
    return _MethodFacts(method.lineno, touches, self_calls, trivial, abstract)


def _check_opcounter(tree: ast.Module) -> Iterable[tuple[int, str, str]]:
    for class_node in ast.walk(tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        methods = {
            stmt.name: _method_facts(stmt)
            for stmt in class_node.body
            if isinstance(stmt, ast.FunctionDef)
        }
        if not any(facts.touches_counter for facts in methods.values()):
            continue  # class does not carry an operation counter

        resolved: dict[str, bool] = {}

        def charges(name: str, trail: frozenset[str]) -> bool:
            if name not in methods:
                return True  # inherited / dynamic: subclass's concern
            if name in resolved:
                return resolved[name]
            if name in trail:
                return False  # recursion without ever touching the counter
            facts = methods[name]
            if facts.abstract or facts.trivial:
                result = True
            elif facts.touches_counter:
                result = True
            else:
                result = any(
                    charges(call, trail | {name}) for call in facts.self_calls
                )
            resolved[name] = result
            return result

        for name in sorted(_CHARGED_METHODS & set(methods)):
            facts = methods[name]
            if facts.abstract or facts.trivial:
                continue
            if not charges(name, frozenset()):
                yield (
                    facts.lineno,
                    "REP002",
                    f"{class_node.name}.{name}() reads/writes stored cells "
                    f"but never charges self.stats / self._counter",
                )


# -- REP006: batch methods must not hide scalar loops -------------------

#: Loop-like AST nodes a scalar call may hide inside.
_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.GeneratorExp,
    ast.DictComp,
)


def _is_crossover_guard(test: ast.expr) -> bool:
    """True when an ``if`` test consults the batch crossover.

    ``if not self._use_batch_path(count): <scalar loop>`` is the
    documented fallback contract (see ``methods/base.py``): the guard
    *is* the evidence the scalar loop was chosen deliberately, so REP006
    sanctions any loop lexically inside that branch.
    """
    for node in ast.walk(test):
        if isinstance(node, ast.Call) and (
            _self_attr(node.func) == "_use_batch_path"
        ):
            return True
    return False


def _crossover_fallback_loops(method: ast.FunctionDef) -> set[int]:
    """ids of loop nodes inside ``not self._use_batch_path`` branches."""
    sanctioned: set[int] = set()
    for node in ast.walk(method):
        if not isinstance(node, ast.If) or not _is_crossover_guard(node.test):
            continue
        for child in node.body:
            for sub in ast.walk(child):
                if isinstance(sub, _LOOP_NODES):
                    sanctioned.add(id(sub))
    return sanctioned


def _check_batch_loops(
    tree: ast.Module, module_path: Path
) -> Iterable[tuple[int, str, str]]:
    parts = module_path.parts
    if "core" not in parts and "methods" not in parts:
        return
    if module_path.name == "base.py" and "methods" in parts:
        return  # the sanctioned scalar-loop defaults live here
    for class_node in ast.walk(tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        for method in class_node.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            if not method.name.endswith("_many"):
                continue
            scalar = method.name[: -len("_many")]
            sanctioned = _crossover_fallback_loops(method)
            for loop in ast.walk(method):
                if not isinstance(loop, _LOOP_NODES):
                    continue
                if id(loop) in sanctioned:
                    continue
                flagged = False
                for node in ast.walk(loop):
                    if (
                        isinstance(node, ast.Call)
                        and _self_attr(node.func) == scalar
                    ):
                        yield (
                            node.lineno,
                            "REP006",
                            f"{class_node.name}.{method.name}() loops over "
                            f"self.{scalar}() — batch methods must share "
                            f"work, not hide a scalar loop",
                        )
                        flagged = True
                        break
                if flagged:
                    break


# -- REP008: hot paths read time only through the injected clock ---------

#: Wall/monotonic clock readers that hot-path modules must not call.
_CLOCK_FUNCTIONS = frozenset(
    {
        "time",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "sleep",
    }
)

#: The clock classes of :mod:`repro.obs.clock`; hot paths receive one,
#: they never build one.
_CLOCK_CLASSES = frozenset({"MonotonicClock", "ManualClock"})

#: Directory names marking the instrumented hot paths.
_HOT_PATH_DIRS = frozenset({"core", "methods", "engine"})

#: Individual observability modules that are themselves on the hot path.
#: ``obs/remote.py`` runs inside pool workers (the shared-memory metric
#: shard writes on every op), so its timestamps must flow through the
#: injected clock exactly like engine code.
_HOT_PATH_FILES = frozenset({("obs", "remote.py")})


def _on_hot_path(module_path: Path) -> bool:
    if _HOT_PATH_DIRS & set(module_path.parts):
        return True
    parts = module_path.parts
    return any(
        len(parts) >= len(suffix) and tuple(parts[-len(suffix):]) == suffix
        for suffix in _HOT_PATH_FILES
    )


def _check_direct_clock(
    tree: ast.Module, module_path: Path
) -> Iterable[tuple[int, str, str]]:
    if not _on_hot_path(module_path):
        return
    imported: set[str] = set()
    clock_classes: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        for alias in node.names:
            if node.module == "time" and alias.name in _CLOCK_FUNCTIONS:
                imported.add(alias.asname or alias.name)
            elif node.module.split(".")[-1] == "clock" and alias.name in _CLOCK_CLASSES:
                clock_classes.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
            and func.attr in _CLOCK_FUNCTIONS
        ):
            called = f"time.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in imported:
            called = func.id
        if called is not None:
            yield (
                node.lineno,
                "REP008",
                f"{called}() in a hot-path module — read time through "
                f"the injected observability clock (repro.obs.clock)",
            )
            continue
        built = None
        if isinstance(func, ast.Name) and func.id in clock_classes:
            built = func.id
        elif isinstance(func, ast.Attribute) and func.attr in _CLOCK_CLASSES:
            built = func.attr
        if built is not None:
            yield (
                node.lineno,
                "REP008",
                f"{built}() in a hot-path module builds a private clock — "
                f"take the injected observability clock instead",
            )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def lint_source(source: str, path: str | Path) -> list[LintFinding]:
    """Lint one module's source text; returns sorted findings."""
    module_path = Path(path)
    try:
        tree = ast.parse(source, filename=str(module_path))
    except SyntaxError as error:
        return [
            LintFinding(
                str(module_path),
                error.lineno or 1,
                "REP000",
                f"syntax error: {error.msg}",
            )
        ]
    source_lines = source.splitlines()
    findings: list[LintFinding] = []
    checks = [
        _check_raw_exceptions(tree),
        _check_mutable_defaults(tree),
        _check_asserts(tree),
        _check_module_all(tree, module_path),
        _check_opcounter(tree),
        _check_batch_loops(tree, module_path),
        _check_direct_clock(tree, module_path),
    ]
    for check in checks:
        for line, rule, message in check:
            if not _suppressed(source_lines, line, rule):
                findings.append(LintFinding(str(module_path), line, rule, message))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _iter_python_files(paths: Sequence[str | Path]) -> Iterable[Path]:
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Sequence[str | Path]) -> list[LintFinding]:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    The result is globally sorted by ``(path, line, rule)`` — not just
    per-file — so output order is stable regardless of how the input
    paths were spelled (``src/`` vs an explicit file list).
    """
    findings: list[LintFinding] = []
    for module_path in _iter_python_files(paths):
        findings.extend(lint_source(module_path.read_text(), module_path))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: print findings, return 1 when any exist."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if not arguments or "-h" in arguments or "--help" in arguments:
        print(__doc__)
        print("usage: python -m repro.analysis.lint PATH [PATH ...]")
        return 0 if arguments else 2
    missing = [entry for entry in arguments if not Path(entry).exists()]
    if missing:
        # A typo'd path must not report "clean" — that would let a
        # misconfigured CI job pass without checking anything.
        for entry in missing:
            print(f"repro-lint: no such path: {entry}", file=sys.stderr)
        return 2
    findings = lint_paths(arguments)
    for finding in findings:
        print(finding)
    checked = sum(1 for _ in _iter_python_files(arguments))
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"repro-lint: {checked} file(s) checked, {status}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
