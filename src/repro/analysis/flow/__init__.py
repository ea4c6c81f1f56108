"""Flow analyses over the repro source tree (REP011–REP012).

The package splits along classic static-analysis lines:

* :mod:`~repro.analysis.flow.dataflow` — the call-graph summary
  fixpoint;
* :mod:`~repro.analysis.flow.raises` — escaping-exception analysis
  (REP011 undeclared non-ReproError escapes);
* :mod:`~repro.analysis.flow.hotpath` — descent-loop allocation checks
  (REP012);
* :mod:`~repro.analysis.flow.driver` — orchestration, baselines, and
  the ``python -m repro.analysis.flow`` / ``repro analyze`` entry.

Run ``repro analyze src/ --baseline benchmarks/baselines/analyze.json``
to reproduce the CI hygiene gate locally.
"""

from .dataflow import fixpoint
from .driver import (
    analyze_paths,
    analyze_sources,
    baseline_document,
    filter_baseline,
    findings_document,
    load_baseline,
    main,
    render_markdown_table,
)
from .findings import FLOW_RULES, FlowFinding
from .hotpath import HOT_FUNCTIONS, allocation_findings
from .raises import EscapeAnalyzer, exception_hierarchy

__all__ = [
    "fixpoint",
    "analyze_paths",
    "analyze_sources",
    "baseline_document",
    "filter_baseline",
    "findings_document",
    "load_baseline",
    "main",
    "render_markdown_table",
    "FLOW_RULES",
    "FlowFinding",
    "HOT_FUNCTIONS",
    "allocation_findings",
    "EscapeAnalyzer",
    "exception_hierarchy",
]
