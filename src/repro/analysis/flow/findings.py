"""The finding record shared by every flow analysis.

Kept in its own module so the analyses (:mod:`raises`, :mod:`hotpath`) and the driver can all import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FlowFinding", "FLOW_RULES"]

#: Rules produced by the dataflow analyses (REP001–REP008 live in
#: :mod:`repro.analysis.lint`).
FLOW_RULES = {
    "REP011": "public entry point leaks an undeclared non-ReproError exception",
    "REP012": "allocation inside a per-query descent loop",
}


@dataclass(frozen=True)
class FlowFinding:
    """One flow-analysis finding at one source location.

    ``symbol`` is the enclosing function's qualified name (for example
    ``ShardedEngine.range_sum``); the baseline/suppression file matches
    on ``(path, rule, symbol)`` so committed suppressions survive line
    drift from unrelated edits.
    """

    path: str
    line: int
    rule: str
    symbol: str
    message: str

    def key(self) -> tuple[str, str, str]:
        return (self.path, self.rule, self.symbol)

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.symbol}] {self.message}"
