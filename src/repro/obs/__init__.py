"""``repro.obs``: tracing, metrics, and slow-query capture for serving.

The paper's whole argument is a cost model — operations per query and
per update — and :class:`~repro.counters.OpCounter` measures exactly
that, after the fact, in aggregate.  This package adds the *live* view a
serving deployment needs: per-query span trees, latency and op-count
distributions, and a slow-query log, behind one facade:

>>> from repro.obs import Observability
>>> from repro.engine import ShardedEngine
>>> obs = Observability()
>>> engine = ShardedEngine((64, 64), shards=4, obs=obs)
>>> engine.add((3, 5), 7)
>>> _ = engine.range_sum((0, 0), (40, 40))
>>> print(obs.metrics.render_prometheus())        # doctest: +SKIP
>>> for record in obs.slow_log.slowest(3):        # doctest: +SKIP
...     print(record.render())

Design rules the whole layer obeys:

* **Disabled means free; enabled is cheap.**  Every structure carries
  ``NULL_OBS`` until an :class:`Observability` is wired in.  Every label
  child a request uses is bound when the engine, method or server is
  built (or a facade assigned), so a request makes no ``labels()``
  lookup, and a disabled facade binds the shared no-op instrument.  The
  engine's operations have one body for both modes; with obs off a
  cache hit reads no clock and opens no span.  The benchmark's
  in-process workloads run with obs off (``engine_hot_reads``
  ``read_p50_us`` guards the disabled path); its ``serve_*`` workloads
  run ``repro serve`` with obs on, and ``obs.read_overhead_us`` prices
  it per served read.
* **One clock.**  All timestamps come from the injected clock; hot-path
  modules never call ``time.perf_counter`` themselves (lint rule
  REP008 enforces this).
* **One schema.**  The Prometheus text exposition and the JSON export
  are two encodings of the same sample walk — values always agree.
"""

from __future__ import annotations

from ..exceptions import ConfigurationError
from .clock import ManualClock, MonotonicClock
from .metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_DEPTH_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from .export import chrome_trace_document, export_unified, write_chrome_trace
from .remote import (
    MetricsHarvester,
    RemoteMetricsLayout,
    WorkerMetricsShard,
    worker_metrics_layout,
)
from .slo import (
    ErrorBudgetSlo,
    LatencySlo,
    SloStatus,
    SloWatchdog,
    default_slo_rules,
    engine_watchdog,
    evaluate_health,
)
from .slowlog import NullSlowQueryLog, SlowQueryLog, SlowQueryRecord
from .trace import (
    NULL_SPAN,
    NullTracer,
    Span,
    Tracer,
    render_span_tree,
    sorted_by_duration,
)

__all__ = [
    "Observability",
    "NULL_OBS",
    "MonotonicClock",
    "ManualClock",
    "MetricsRegistry",
    "NullRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_DEPTH_BUCKETS",
    "Tracer",
    "NullTracer",
    "Span",
    "NULL_SPAN",
    "render_span_tree",
    "sorted_by_duration",
    "SlowQueryLog",
    "SlowQueryRecord",
    "NullSlowQueryLog",
    "RemoteMetricsLayout",
    "WorkerMetricsShard",
    "MetricsHarvester",
    "worker_metrics_layout",
    "chrome_trace_document",
    "write_chrome_trace",
    "export_unified",
    "SloWatchdog",
    "SloStatus",
    "LatencySlo",
    "ErrorBudgetSlo",
    "default_slo_rules",
    "engine_watchdog",
    "evaluate_health",
]


class Observability:
    """One wiring point for clock, metrics, tracer, and slow-query log.

    Structures receive an ``Observability`` (or the shared ``NULL_OBS``)
    and read everything through it.  The facade pre-registers the
    method- and tree-level instrument families used by the hot paths so
    instrumented code never pays a registry lookup per query.

    Args:
        clock: injected time source; defaults to
            :class:`~repro.obs.clock.MonotonicClock`.
        metrics: metrics registry; defaults to a fresh
            :class:`~repro.obs.metrics.MetricsRegistry`.
        tracer: span tracer; defaults to a :class:`~repro.obs.trace.Tracer`
            sharing ``clock``.
        slow_log: slow-query log; defaults to a fresh
            :class:`~repro.obs.slowlog.SlowQueryLog`.
        trace_sample_every: head-sampling period for the default tracer
            (record every Nth root trace); ignored when ``tracer`` is
            passed explicitly.
        slow_query_seconds: latency threshold for the default slow log;
            ignored when ``slow_log`` is passed explicitly.
        slow_query_ops: op-count threshold for the default slow log.
        slow_sample_rate: sampling probability for the default slow log.
        remote_worker_metrics: when True (the default) a process-backed
            engine allocates per-worker shared-memory metric shards and
            a harvester (see :mod:`repro.obs.remote`); False keeps
            observability parent-only.
    """

    def __init__(
        self,
        clock=None,
        metrics=None,
        tracer=None,
        slow_log=None,
        trace_sample_every: int = 1,
        slow_query_seconds: float = 0.0,
        slow_query_ops: int | None = None,
        slow_sample_rate: float = 1.0,
        remote_worker_metrics: bool = True,
    ) -> None:
        self.enabled = True
        self.remote_worker_metrics = remote_worker_metrics
        self.clock = clock if clock is not None else MonotonicClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(clock=self.clock, sample_every=trace_sample_every)
        )
        self.slow_log = (
            slow_log
            if slow_log is not None
            else SlowQueryLog(
                latency_threshold=slow_query_seconds,
                op_threshold=slow_query_ops,
                sample_rate=slow_sample_rate,
            )
        )
        self._register_shared_instruments()

    def _register_shared_instruments(self) -> None:
        """Pre-create the families the method/tree hot paths observe into."""
        self.method_query_seconds = self.metrics.histogram(
            "repro_method_query_seconds",
            "Range-sum latency per method (base dispatch).",
            labels=("method",),
        )
        self.method_query_ops = self.metrics.histogram(
            "repro_method_query_ops",
            "Logical cell operations per range-sum query, per method.",
            labels=("method",),
            buckets=DEFAULT_COUNT_BUCKETS,
        )
        self.batch_path_total = self.metrics.counter(
            "repro_method_batch_path_total",
            "Batch dispatch decisions: shared-work batch path vs scalar "
            "fallback below the method's crossover.",
            labels=("method", "path"),
        )
        self.descent_depth = self.metrics.histogram(
            "repro_tree_descent_depth",
            "Primary/B^c tree levels walked per descent.",
            labels=("structure", "op"),
            buckets=DEFAULT_DEPTH_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def disabled(cls) -> "Observability":
        """A permanently-off facade: no-op components, zero retention.

        Prefer the shared :data:`NULL_OBS` singleton; this constructor
        exists for tests that want an independent disabled instance.
        """
        obs = cls.__new__(cls)
        obs.enabled = False
        obs.remote_worker_metrics = False
        obs.clock = MonotonicClock()
        obs.metrics = NullRegistry()
        obs.tracer = NullTracer()
        obs.slow_log = NullSlowQueryLog()
        obs._register_shared_instruments()
        return obs

    # ------------------------------------------------------------------
    # Convenience pass-throughs
    # ------------------------------------------------------------------

    def span(self, name: str, **attributes):
        """Open a span on the tracer (see :meth:`Tracer.span`)."""
        return self.tracer.span(name, **attributes)

    def export_unified(self, engine=None, slo=None) -> dict:
        """One snapshot, every encoding (see :func:`repro.obs.export.export_unified`).

        Pass the engine to harvest worker metrics and include pool
        state; pass an :class:`~repro.obs.slo.SloWatchdog` to include a
        fresh health verdict.
        """
        return export_unified(self, engine=engine, slo=slo)

    def enable(self) -> None:
        """Turn instrumentation on (components must be real, not null)."""
        if isinstance(self.metrics, NullRegistry):
            raise ConfigurationError(
                "cannot enable a disabled() Observability — construct a "
                "fresh Observability() instead"
            )
        self.enabled = True

    def disable(self) -> None:
        """Pause instrumentation (retained traces and metrics survive)."""
        self.enabled = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return f"Observability({state})"


#: Shared disabled facade every structure carries by default.  Hot paths
#: check ``obs.enabled`` once and skip all instrumentation work.
NULL_OBS = Observability.disabled()
