"""Hot-path allocation analysis: per-query descent loops stay lean (REP012).

Scalar query latency (``benchmarks/e2e``: ``ddc_mixed_2d``
``read_p50_us``, ``methods.query_us``) lives and dies on the scalar
descent loops — the per-level ``while`` walks in
``DynamicDataCube._walk_under`` / ``_add_at``, the B^c-tree descents,
the Fenwick index loops.  A comprehension, generator expression, or
closure created *inside* one of those loops allocates on every level of every query; at
millions of queries that is pure allocator pressure the prefix-sum
trade-off literature says to engineer away (hoist the allocation, reuse
a buffer, or vectorise the level).

REP012 flags, inside the known scalar descent entry points and their
walk helpers, any ``For``/``While`` loop body that builds:

* a list / set / dict comprehension or generator expression,
* a ``lambda`` or nested ``def`` (a closure cell allocation per
  iteration),
* a ``list()`` / ``dict()`` / ``set()`` constructor call.

Batch ``*_many`` methods are exempt — they amortise one allocation over
the whole batch, which is the entire point of the batch path.  Findings
that represent a measured-and-accepted trade-off belong in the committed
analyze baseline, not in ``noqa`` sprinkles.
"""

from __future__ import annotations

import ast

from .findings import FlowFinding

__all__ = ["HOT_FUNCTIONS", "allocation_findings"]

#: Scalar per-query entry points and the descent helpers behind them.
HOT_FUNCTIONS = frozenset(
    {
        "prefix_sum",
        "range_sum",
        "row_value",
        "apply_delta",
        "add",
        "get",
        "subtotal",
        "_prefix_walk",
        "_range_walk",
        "_descend",
        "_box_contribution",
        "_walk_under",
        "_add_at",
        "_fill_complete",
        "_split_up",
        "prefix_one",
        "add_one",
        "gather_level",
    }
)

#: Builtin constructors whose call inside a descent loop allocates.
_ALLOCATING_CALLS = frozenset({"list", "dict", "set"})

_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)


def _allocations(loop: ast.For | ast.AsyncFor | ast.While) -> list[tuple[int, str]]:
    """(line, description) per allocation lexically inside ``loop``."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(loop):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            found.append((node.lineno, "comprehension"))
        elif isinstance(node, ast.GeneratorExp):
            found.append((node.lineno, "generator expression"))
        elif isinstance(node, ast.Lambda):
            found.append((node.lineno, "lambda closure"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.lineno, f"nested function {node.name}()"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ALLOCATING_CALLS
        ):
            found.append((node.lineno, f"{node.func.id}() construction"))
    return found


def allocation_findings(tree: ast.Module, path: str) -> list[FlowFinding]:
    """REP012 findings for every hot function in ``tree``."""
    findings: list[FlowFinding] = []
    for class_node in ast.walk(tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name not in HOT_FUNCTIONS:
                continue
            qualname = f"{class_node.name}.{method.name}"
            seen: set[int] = set()
            for loop in ast.walk(method):
                if not isinstance(loop, _LOOP_NODES):
                    continue
                for line, what in _allocations(loop):
                    if line in seen:
                        continue  # nested loops: report the site once
                    seen.add(line)
                    findings.append(
                        FlowFinding(
                            path,
                            line,
                            "REP012",
                            qualname,
                            f"{what} allocated inside the per-query descent "
                            f"loop — hoist it out of the loop, reuse a "
                            f"buffer, or move the query to the batch path",
                        )
                    )
    return findings
