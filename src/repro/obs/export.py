"""Unified export surface: one snapshot, every encoding.

``repro metrics`` wants Prometheus text, dashboards want JSON, humans
want ``chrome://tracing`` / Perfetto for span trees, and the future
``/healthz`` wants the SLO verdict — all of them views over the same
:class:`~repro.obs.Observability` state.  This module renders them from
one walk so the encodings can never disagree:

* :func:`chrome_trace_document` — finished root spans as Chrome trace
  "complete" (``ph: "X"``) events.  Spans carrying a ``worker``
  attribute (a process-mode shard span names the lane owning its slab)
  land on their own track, so a process-mode trace shows the parent
  request lane above per-worker lanes.
* :func:`export_unified` — the kitchen-sink snapshot dict backing
  :meth:`Observability.export_unified`: Prometheus text + JSON metrics
  (per-worker labels included once harvested), the Chrome trace, slow
  queries, pool state, and the SLO health document.
"""

from __future__ import annotations

import json

from .trace import Span

__all__ = [
    "chrome_trace_document",
    "write_chrome_trace",
    "export_unified",
]

#: Synthetic Chrome-trace process id (one engine = one "process" row).
_TRACE_PID = 1


def _span_tid(span: Span) -> int:
    """Track id for one span: parent work on 0, worker spans on 1+N."""
    worker = span.attributes.get("worker")
    if worker is None:
        return 0
    try:
        return int(worker) + 1
    except (TypeError, ValueError):
        return 0


def chrome_trace_document(roots) -> dict:
    """Finished root spans as a ``chrome://tracing`` / Perfetto document.

    Timestamps are microseconds relative to the earliest root, so the
    document is stable across runs of the same virtual-clock test.
    Span attributes become event ``args`` (stringified — the viewer
    displays them verbatim); ``trace_id``/``span_id`` ride along so
    events can be joined back to the tracer's trees.
    """
    roots = [root for root in roots if isinstance(root, Span)]
    if not roots:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(root.start for root in roots)
    events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _TRACE_PID,
            "tid": 0,
            "args": {"name": "repro-engine"},
        }
    ]
    tids_seen: set[int] = set()
    for root in roots:
        for span in root.walk():
            tid = _span_tid(span)
            tids_seen.add(tid)
            args = {key: str(value) for key, value in span.attributes.items()}
            args["trace_id"] = str(span.trace_id)
            args["span_id"] = str(span.span_id)
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": "repro",
                    "pid": _TRACE_PID,
                    "tid": tid,
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "args": args,
                }
            )
    for tid in sorted(tids_seen):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _TRACE_PID,
                "tid": tid,
                "args": {"name": "parent" if tid == 0 else f"worker {tid - 1}"},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, roots) -> int:
    """Serialise :func:`chrome_trace_document` to ``path``.

    Returns the number of trace events written (metadata excluded).
    """
    document = chrome_trace_document(roots)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return sum(1 for event in document["traceEvents"] if event["ph"] == "X")


def export_unified(obs, engine=None, slo=None) -> dict:
    """One snapshot of everything the observability layer knows.

    Args:
        obs: the facade to export.
        engine: optional :class:`~repro.engine.ShardedEngine`; when given
            its worker metrics are harvested first (so per-worker labels
            appear in both metric encodings) and its pool state rides
            along.
        slo: optional :class:`~repro.obs.slo.SloWatchdog`; when given a
            fresh check runs and its health document is included.
    """
    harvest = None
    pool = None
    if engine is not None:
        harvester = getattr(engine, "harvest_worker_metrics", None)
        if harvester is not None:
            harvest = harvester()
        pool_info = getattr(engine, "pool_info", None)
        if pool_info is not None:
            pool = pool_info()
    health = None
    if slo is not None:
        slo.check()
        health = slo.healthz()
    roots = obs.tracer.finished_roots()
    return {
        "prometheus": obs.metrics.render_prometheus(),
        "metrics": obs.metrics.to_json()["metrics"],
        "chrome_trace": chrome_trace_document(roots),
        "slow_queries": [
            {
                "seconds": record.seconds,
                "attributes": dict(record.attributes),
                "shards": record.shards,
                "workers": record.workers,
            }
            for record in obs.slow_log.slowest(16)
        ],
        "harvest": harvest,
        "pool": pool,
        "slo": health,
    }
