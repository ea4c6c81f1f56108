"""Correctness tooling: structural sanitizer and project-rule linter.

The Dynamic Data Cube's correctness rests on invariants the paper states
but running code can silently drift away from: every B^c-tree node's
subtree sums must equal the sum of its children, overlay box values must
equal the row sums they cache, recursive sub-cubes must agree with the
cells they summarise, and the disk layer's free list and caches must
stay coherent.  This package is the sanitizer + lint layer that checks
all of it:

* :func:`~repro.analysis.audit.audit` — a uniform deep-checker over
  every structure in the library, producing an :class:`AuditReport`
  whose findings carry a *path* to the offending node;
* :func:`~repro.analysis.sanitize.sanitize` — a wrapper that re-audits
  a structure after every mutating operation (for tests and fuzzing);
* :mod:`repro.analysis.lint` — an AST-based project-rule linter
  (REP001–REP008), runnable as ``python -m repro.analysis.lint src/``;
* :mod:`repro.analysis.flow` — flow analyses (REP011–REP012: escaping
  exceptions, hot-path allocations), runnable as ``repro analyze``.
"""

from __future__ import annotations

from .audit import AuditError, AuditReport, Finding, audit
from .sanitize import Sanitized, sanitize


def __getattr__(name: str):
    # Lazy so that `python -m repro.analysis.lint` (and `... .flow`) do
    # not import the submodule twice (runpy warns when the package
    # eagerly imports it), and so importing the audit layer does not
    # drag in the analyzer.
    if name in ("LintFinding", "lint_paths"):
        from . import lint

        return getattr(lint, name)
    if name in ("FlowFinding", "analyze_paths"):
        from . import flow

        return getattr(flow, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AuditError",
    "AuditReport",
    "Finding",
    "audit",
    "LintFinding",
    "lint_paths",
    "FlowFinding",
    "analyze_paths",
    "Sanitized",
    "sanitize",
]
