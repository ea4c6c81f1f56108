"""Slow-query log: full span trees + OpCounter diffs for outlier queries.

Histograms show that a tail exists; the slow-query log shows *why*.  A
query whose latency (or logical operation count) crosses the configured
threshold is captured as one :class:`SlowQueryRecord` holding:

* the query's finished span tree — an engine root and one child per
  shard touched, with every per-span attribute (shard ids, cache
  outcome, node-visit and cell-op deltas), and
* the :class:`~repro.counters.OpCounter` diff accumulated while serving
  it — the paper's own cost axis, so a slow query can be read as "slow
  because it touched 40k cells" vs "slow because the executor stalled".
  The engine sums it from the shards that computed.

Probabilistic sampling (``sample_rate``) bounds capture overhead under a
pathological workload where *every* query crosses the threshold; the
RNG is seeded so runs stay reproducible.  The record buffer is a ring:
the log never grows past ``capacity`` entries.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from ..counters import OpCounter
from ..exceptions import ConfigurationError
from .trace import Span, render_span_tree

__all__ = ["SlowQueryRecord", "SlowQueryLog", "NullSlowQueryLog"]


@dataclass(slots=True)
class SlowQueryRecord:
    """One captured slow query."""

    #: Root of the query's span tree (may be the null span when the
    #: tracer head-sampled this trace out; the ops diff is still real).
    span: object
    #: Logical operations accumulated while serving the query.
    ops: OpCounter
    #: Wall seconds the query took (from the injected clock).
    seconds: float
    #: Free-form context (operation name, executor kind, batch size, ...).
    attributes: dict = field(default_factory=dict)

    def _collect(self, key: str) -> list:
        """Distinct values of one span attribute across the whole tree."""
        values: list = []
        if isinstance(self.span, Span):
            for node in self.span.walk():
                value = node.attributes.get(key)
                if value is not None and value not in values:
                    values.append(value)
        return values

    @property
    def shards(self) -> list:
        """Shard indices touched while serving (from the span tree)."""
        return self._collect("shard")

    @property
    def workers(self) -> list:
        """Pool-worker lanes involved, if any (process executor only)."""
        return self._collect("worker")

    def render(self) -> str:
        """Multi-line rendering: headline, ops line, span tree."""
        extras = ", ".join(f"{k}={v}" for k, v in self.attributes.items())
        shards = self.shards
        workers = self.workers
        if shards:
            extras += f"{', ' if extras else ''}shards={shards}"
        if workers:
            extras += f", workers={workers}"
        lines = [
            f"slow query: {self.seconds * 1e3:.3f}ms"
            + (f" ({extras})" if extras else ""),
            f"  ops: reads={self.ops.cell_reads} writes={self.ops.cell_writes} "
            f"node_visits={self.ops.node_visits}",
        ]
        if isinstance(self.span, Span):
            lines.append(render_span_tree(self.span, indent=1))
        return "\n".join(lines)


class SlowQueryLog:
    """Bounded, sampled capture of queries above a latency/op threshold.

    Args:
        capacity: records retained (ring buffer, oldest evicted).
        latency_threshold: seconds at or above which a query qualifies.
            The default 0.0 captures every query offered — useful for
            tracing runs; production configs raise it.
        op_threshold: alternative qualification by logical operation
            count (``total_cell_ops``); ``None`` disables the op gate.
        sample_rate: probability a qualifying query is actually stored
            (1.0 = keep all).  Bounds overhead when everything is slow.
        seed: RNG seed for the sampling decisions (reproducible runs).
    """

    def __init__(
        self,
        capacity: int = 32,
        latency_threshold: float = 0.0,
        op_threshold: int | None = None,
        sample_rate: float = 1.0,
        seed: int = 0,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"slow-log capacity must be >= 1, got {capacity}")
        if not 0.0 <= sample_rate <= 1.0:
            raise ConfigurationError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        if latency_threshold < 0:
            raise ConfigurationError(
                f"latency_threshold must be >= 0, got {latency_threshold}"
            )
        self.latency_threshold = latency_threshold
        self.op_threshold = op_threshold
        self.sample_rate = sample_rate
        self._rng = random.Random(seed)
        self._records: deque[SlowQueryRecord] = deque(maxlen=capacity)
        #: Queries that qualified (before sampling) — the true slow count.
        self.qualified = 0
        #: Qualifying queries dropped by the sampling coin flip.
        self.sampled_out = 0

    def consider(
        self,
        span: object,
        ops: OpCounter,
        seconds: float,
        **attributes,
    ) -> bool:
        """Offer one finished query; returns True when it was recorded."""
        slow = seconds >= self.latency_threshold or (
            self.op_threshold is not None
            and ops.total_cell_ops >= self.op_threshold
        )
        if not slow:
            return False
        self.qualified += 1
        if self.sample_rate < 1.0 and self._rng.random() >= self.sample_rate:
            self.sampled_out += 1
            return False
        self._records.append(
            SlowQueryRecord(span, ops, seconds, attributes)
        )
        return True

    def records(self) -> list[SlowQueryRecord]:
        """Retained records, oldest first."""
        return list(self._records)

    def slowest(self, count: int) -> list[SlowQueryRecord]:
        """The ``count`` slowest retained records, slowest first."""
        ranked = sorted(self._records, key=lambda r: r.seconds, reverse=True)
        return ranked[:count]

    def clear(self) -> None:
        """Drop every record (thresholds and tallies are preserved)."""
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SlowQueryLog(records={len(self._records)}, "
            f"threshold={self.latency_threshold}s, "
            f"sample_rate={self.sample_rate})"
        )


class NullSlowQueryLog:
    """Disabled-mode slow log: records nothing, reports nothing."""

    latency_threshold = 0.0
    qualified = 0
    sampled_out = 0

    def consider(self, span, ops, seconds, **attributes) -> bool:
        return False

    def records(self) -> list:
        return []

    def slowest(self, count: int) -> list:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0
