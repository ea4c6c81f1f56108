"""Driver: run the flow analyses over a tree, diff against a baseline.

The scope rules mirror where each analysis has something to say:

* exception-flow (REP011) — ``engine/`` and ``methods/`` (the public
  serving and query entry points callers program against);
* hot-path allocation (REP012) — ``core/`` and ``methods/`` (the scalar
  descent loops the benchmarks exercise).

Findings are deterministic: modules are visited in sorted path order and
the final list is sorted by ``(path, line, rule, message)``, so repeated
runs over the same tree byte-match — a requirement for the committed
baseline (``benchmarks/baselines/analyze.json``) and CI diffing.

The baseline is an :mod:`repro.artifacts` document whose rows are
accepted findings keyed by ``(path, rule, symbol)``; ``repro analyze
--update-baseline`` rewrites it.  One-off suppressions can instead use a
line pragma, ``# noqa: REP011`` etc., exactly as with the lint rules.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, Sequence

from ...artifacts import load_document, make_document, write_document
from ..lint import _suppressed
from .findings import FLOW_RULES, FlowFinding
from .hotpath import allocation_findings
from .raises import EscapeAnalyzer

__all__ = [
    "analyze_paths",
    "analyze_sources",
    "load_baseline",
    "filter_baseline",
    "baseline_document",
    "findings_document",
    "render_markdown_table",
    "main",
]

#: Directory-name gates per analysis family.
_RAISES_DIRS = frozenset({"engine", "methods"})
_HOTPATH_DIRS = frozenset({"core", "methods"})


def _iter_python_files(paths: Sequence[str | Path]) -> Iterable[Path]:
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def analyze_sources(sources: Sequence[tuple[str, str]]) -> list[FlowFinding]:
    """Run every flow analysis over ``(path, source)`` module pairs.

    The unit the tests drive directly; :func:`analyze_paths` feeds it
    from the filesystem.  Findings carrying a matching ``# noqa:``
    pragma on their line are dropped, and the result is fully sorted.
    """
    escape_analyzer = EscapeAnalyzer()
    findings: list[FlowFinding] = []
    lines_by_path: dict[str, list[str]] = {}

    for path_text, source in sources:
        parts = set(Path(path_text).parts)
        lines_by_path[path_text] = source.splitlines()
        try:
            tree = ast.parse(source, filename=path_text)
        except SyntaxError as error:
            findings.append(
                FlowFinding(
                    path_text,
                    error.lineno or 1,
                    "REP000",
                    "<module>",
                    f"syntax error: {error.msg}",
                )
            )
            continue
        if _RAISES_DIRS & parts:
            findings.extend(escape_analyzer.analyze_module(tree, path_text))
        if _HOTPATH_DIRS & parts:
            findings.extend(allocation_findings(tree, path_text))

    kept = [
        finding
        for finding in findings
        if not _suppressed(
            lines_by_path.get(finding.path, []), finding.line, finding.rule
        )
    ]
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return kept


def analyze_paths(paths: Sequence[str | Path]) -> list[FlowFinding]:
    """Analyze every ``.py`` file under ``paths`` (files or directories)."""
    sources = [
        (str(module_path), module_path.read_text())
        for module_path in _iter_python_files(paths)
    ]
    return analyze_sources(sources)


# ----------------------------------------------------------------------
# Baseline handling
# ----------------------------------------------------------------------


def load_baseline(path: str | Path) -> set[tuple[str, str, str]]:
    """Accepted-finding keys from a committed baseline document."""
    document = load_document(path, "flow_analysis")
    keys: set[tuple[str, str, str]] = set()
    for row in document["rows"]:
        if isinstance(row, dict) and {"path", "rule", "symbol"} <= set(row):
            keys.add((str(row["path"]), str(row["rule"]), str(row["symbol"])))
    return keys


def filter_baseline(
    findings: Sequence[FlowFinding], baseline: set[tuple[str, str, str]]
) -> tuple[list[FlowFinding], int]:
    """``(new findings, suppressed count)`` after baseline subtraction."""
    fresh = [finding for finding in findings if finding.key() not in baseline]
    return fresh, len(findings) - len(fresh)


def _rows(findings: Sequence[FlowFinding]) -> list[dict]:
    return [
        {
            "path": finding.path,
            "line": finding.line,
            "rule": finding.rule,
            "symbol": finding.symbol,
            "message": finding.message,
        }
        for finding in findings
    ]


def baseline_document(findings: Sequence[FlowFinding]) -> dict:
    """An artifacts document recording ``findings`` as the new baseline."""
    return make_document("flow_analysis", rows=_rows(findings))


def findings_document(
    findings: Sequence[FlowFinding], *, files: int, suppressed: int
) -> dict:
    """The ``repro analyze --json`` output document."""
    return make_document(
        "flow_analysis",
        rows=_rows(findings),
        files=files,
        suppressed=suppressed,
        rules=dict(sorted(FLOW_RULES.items())),
    )


def render_markdown_table(findings: Sequence[FlowFinding]) -> str:
    """Findings as a GitHub-flavoured markdown table (for step summaries)."""
    if not findings:
        return "No un-baselined flow-analysis findings.\n"
    lines = [
        "| location | rule | symbol | finding |",
        "| --- | --- | --- | --- |",
    ]
    for finding in findings:
        message = finding.message.replace("|", "\\|")
        lines.append(
            f"| `{finding.path}:{finding.line}` | {finding.rule} "
            f"| `{finding.symbol}` | {message} |"
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Module entry point (`python -m repro.analysis.flow`)
# ----------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    """Run the analyses; exit 1 on un-baselined findings, 2 on bad usage."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    baseline_path: str | None = None
    if "--baseline" in arguments:
        index = arguments.index("--baseline")
        try:
            baseline_path = arguments[index + 1]
        except IndexError:
            print("--baseline requires a file argument", file=sys.stderr)
            return 2
        del arguments[index : index + 2]
    if not arguments or "-h" in arguments or "--help" in arguments:
        print(__doc__)
        print(
            "usage: python -m repro.analysis.flow PATH [PATH ...] "
            "[--baseline FILE]"
        )
        return 0 if arguments else 2
    missing = [entry for entry in arguments if not Path(entry).exists()]
    if missing:
        for entry in missing:
            print(f"repro-flow: no such path: {entry}", file=sys.stderr)
        return 2
    findings = analyze_paths(arguments)
    suppressed = 0
    if baseline_path is not None:
        findings, suppressed = filter_baseline(
            findings, load_baseline(baseline_path)
        )
    for finding in findings:
        print(finding)
    checked = sum(1 for _ in _iter_python_files(arguments))
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(
        f"repro-flow: {checked} file(s) analysed, {status}"
        + (f", {suppressed} baselined" if suppressed else "")
    )
    return 1 if findings else 0


# Re-exported for the CLI; imported here so `repro analyze` has one
# import surface for writes too.
__all__ += ["write_document"]
