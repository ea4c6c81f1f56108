"""The benchmark's own tracer: spans kept in memory, written at exit.

One root span per op (``op.read`` / ``op.write``) times the call into
the program.  The program opens no spans of its own here, so its layers
are measured from outside: right after the root, the benchmark repeats
each layer's call on structures it owns, with the same inputs, and
records that as a child span of the root (``shadow: true`` — its clock
interval follows the root's instead of lying inside it).  A root's self
time is its duration minus its children's durations: what the program
spent outside the layers that could be called on their own.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        #: (id, parent id or None, op id, name, start ns, end ns, attrs)
        self.spans: list[tuple] = []

    def record(self, name, start, end, op, parent=None, **attrs) -> int:
        self.spans.append((len(self.spans), parent, op, name, start, end, attrs))
        return len(self.spans) - 1

    def self_times_us(self) -> dict[str, list[float]]:
        """Root name -> one self time per root, in microseconds."""
        children = defaultdict(int)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        selves = defaultdict(list)
        for ident, parent, _, name, start, end, _ in self.spans:
            if parent is None:
                selves[name].append((end - start - children[ident]) / 1e3)
        return selves

    def child_totals_us(self, name: str) -> list[float]:
        """Per op that has a ``name`` child: the children's summed time."""
        per_op = defaultdict(int)
        for _, parent, op, span_name, start, end, _ in self.spans:
            if parent is not None and span_name == name:
                per_op[op] += end - start
        return [total / 1e3 for total in per_op.values()]

    def write(self, path, **header) -> None:
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns", "attrs")
        document = dict(header, spans=[dict(zip(keys, span)) for span in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, separators=(",", ":")) + "\n")


def median(values) -> float:
    """Median, or 0.0 where the layer never ran on this workload."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
