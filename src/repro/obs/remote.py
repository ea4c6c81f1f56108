"""Cross-process telemetry: shared-memory worker metric shards.

The parent-process registry (:mod:`repro.obs.metrics`) cannot see what
happens inside pool workers — seqlock retries, slab-kernel gather
timings, delta-apply latency all execute in other processes.  Shipping
metric updates over the IPC pipe would tax the exact hot path the
metrics are meant to watch, so workers publish telemetry the same way
shards publish data: through shared memory.

**Slot layout.**  Each worker owns one small segment laid out by a
:class:`RemoteMetricsLayout` — a fixed, parent-chosen schema of
instruments flattened into a single ``float64`` slot array:

* counter / gauge → 1 slot (the running value);
* histogram with ``B`` finite bounds → ``B + 1`` bucket-count slots
  (``+Inf`` last, matching :class:`~repro.obs.metrics._HistogramChild`),
  then a ``sum`` slot, then a ``count`` slot.

Ahead of the slots sits a two-word ``int64`` header reusing the seqlock
discipline of :mod:`repro.engine.shm`: ``seq`` (odd while the owning
worker is mid-update, even after) and ``updates`` (total updates
published).  The worker is the *only* writer, so updates are lock-free;
the parent snapshots the slot array and retries while ``seq`` is odd or
changes underneath it.

**Harvest semantics.**  :class:`MetricsHarvester` owns the segments
(workers only attach), keeps the last snapshot per worker, and merges
*deltas* into the parent registry under an extra ``worker`` label.
Because the segment outlives the worker process, a SIGKILLed worker's
last-published values are still mapped: the next harvest picks them up
(no loss), and since merging is delta-based a respawned worker that
keeps incrementing the same slots is never double-counted.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..shmutil import attach_segment
from .metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)

__all__ = [
    "HEADER_SEQ",
    "HEADER_UPDATES",
    "RemoteMetricsLayout",
    "WorkerMetricsShard",
    "MetricsHarvester",
    "worker_metrics_layout",
]

#: Header words ahead of the slot array: ``seq`` is the single-writer
#: seqlock counter, ``updates`` counts published updates (diagnostics).
HEADER_SEQ = 0
HEADER_UPDATES = 1
_HEADER_COUNT = 2
_HEADER_DTYPE = np.dtype(np.int64)
_HEADER_NBYTES = _HEADER_COUNT * _HEADER_DTYPE.itemsize
_SLOT_DTYPE = np.dtype(np.float64)

_KINDS = ("counter", "gauge", "histogram")

_SEGMENT_IDS = itertools.count()


class RemoteMetricsLayout:
    """Fixed slot schema shared by one worker shard and its harvester.

    Built parent-side and pickled to workers, so both ends agree on
    every offset by construction.  Entries are plain tuples::

        (kind, name, help, labels, buckets)

    where ``kind`` is ``"counter"``/``"gauge"``/``"histogram"``,
    ``labels`` is a tuple of ``(label, value)`` pairs binding this slot
    group to one concrete child (the harvester appends the ``worker``
    label itself), and ``buckets`` is the finite bucket ladder for
    histograms (``None`` otherwise).
    """

    def __init__(self, entries: Sequence[tuple]) -> None:
        if not entries:
            raise ConfigurationError("remote metrics layout needs >= 1 entry")
        resolved: list[tuple] = []
        offsets: list[int] = []
        index: dict[tuple, int] = {}
        slot = 0
        for position, entry in enumerate(entries):
            kind, name, help_text, labels, buckets = entry
            if kind not in _KINDS:
                raise ConfigurationError(
                    f"unknown remote instrument kind {kind!r}; "
                    f"known kinds: {', '.join(_KINDS)}"
                )
            labels = tuple((str(key), str(value)) for key, value in labels)
            if kind == "histogram":
                bounds = tuple(float(b) for b in (buckets or ()))
                if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
                    raise ConfigurationError(
                        f"remote histogram {name!r} buckets must be "
                        f"non-empty and strictly ascending, got {bounds}"
                    )
                width = len(bounds) + 3  # +Inf bucket, sum, count
            else:
                bounds = None
                width = 1
            key = (str(name), labels)
            if key in index:
                raise ConfigurationError(
                    f"duplicate remote instrument {name!r} with labels {labels}"
                )
            index[key] = position
            resolved.append((kind, str(name), str(help_text), labels, bounds))
            offsets.append(slot)
            slot += width
        self.entries = tuple(resolved)
        self.offsets = tuple(offsets)
        self.slots = slot
        self._index = index

    @property
    def nbytes(self) -> int:
        """Segment size: header plus the full slot array."""
        return _HEADER_NBYTES + self.slots * _SLOT_DTYPE.itemsize

    def locate(self, name: str, labels: dict) -> int:
        """Position of the entry for ``name`` + concrete labels."""
        key = (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))
        # Entries store labels in declaration order; compare as sets.
        for (entry_name, entry_labels), position in self._index.items():
            if entry_name == name and dict(entry_labels) == dict(key[1]):
                return position
        raise ConfigurationError(
            f"remote layout has no instrument {name!r} with labels "
            f"{dict(key[1])}"
        )


def worker_metrics_layout() -> RemoteMetricsLayout:
    """The pool's standard worker telemetry schema.

    One layout shared by every worker: delta-apply latency and batch
    size, and per-op tallies.  Workers serve no reads, so the gather
    latency family is the parent's own.
    """
    return RemoteMetricsLayout(
        [
            (
                "histogram",
                "repro_worker_apply_seconds",
                "Delta-apply latency inside pool workers",
                (),
                DEFAULT_LATENCY_BUCKETS,
            ),
            (
                "histogram",
                "repro_worker_apply_batch_updates",
                "Updates folded per delta-apply batch inside pool workers",
                (),
                DEFAULT_COUNT_BUCKETS,
            ),
            *(
                (
                    "counter",
                    "repro_worker_ops_total",
                    "Operations served by pool workers",
                    (("op", op),),
                    None,
                )
                for op in ("apply", "ping")
            ),
        ]
    )


class _ShardInstrument:
    """Base for worker-side handles: one slot group in the shard."""

    __slots__ = ("_shard", "_offset")

    def __init__(self, shard: "WorkerMetricsShard", offset: int) -> None:
        self._shard = shard
        self._offset = offset


class _ShardCounter(_ShardInstrument):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counters only go up (inc by {amount}); use a gauge"
            )
        shard = self._shard
        shard._begin()
        shard._slots[self._offset] += amount
        shard._end()


class _ShardGauge(_ShardInstrument):
    __slots__ = ()

    def set(self, value: float) -> None:
        shard = self._shard
        shard._begin()
        shard._slots[self._offset] = value
        shard._end()

    def inc(self, amount: float = 1.0) -> None:
        shard = self._shard
        shard._begin()
        shard._slots[self._offset] += amount
        shard._end()

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class _ShardHistogram(_ShardInstrument):
    __slots__ = ("_bounds", "_sum_offset", "_count_offset")

    def __init__(
        self, shard: "WorkerMetricsShard", offset: int, bounds: tuple
    ) -> None:
        super().__init__(shard, offset)
        self._bounds = bounds
        self._sum_offset = offset + len(bounds) + 1
        self._count_offset = self._sum_offset + 1

    def observe(self, value: float) -> None:
        shard = self._shard
        slots = shard._slots
        shard._begin()
        slots[self._offset + bisect_left(self._bounds, value)] += 1.0
        slots[self._sum_offset] += value
        slots[self._count_offset] += 1.0
        shard._end()


class WorkerMetricsShard:
    """Worker-side writer over one telemetry segment (lock-free).

    The worker is the sole writer; every update is bracketed by the
    seqlock so the parent's snapshot either sees it whole or retries.
    Handles are resolved once at worker start (:meth:`counter` etc.) —
    the hot path is two header bumps and a few slot adds.
    """

    def __init__(self, layout: RemoteMetricsLayout, segment_name: str) -> None:
        self.layout = layout
        self.segment_name = segment_name
        self._segment = attach_segment(segment_name)
        self._header = np.ndarray(
            _HEADER_COUNT, dtype=_HEADER_DTYPE, buffer=self._segment.buf
        )
        self._slots = np.ndarray(
            layout.slots,
            dtype=_SLOT_DTYPE,
            buffer=self._segment.buf,
            offset=_HEADER_NBYTES,
        )

    def _begin(self) -> None:
        self._header[HEADER_SEQ] += 1

    def _end(self) -> None:
        self._header[HEADER_UPDATES] += 1
        self._header[HEADER_SEQ] += 1

    def _handle(self, kind: str, name: str, labels: dict):
        position = self.layout.locate(name, labels)
        entry_kind, _, _, _, bounds = self.layout.entries[position]
        if entry_kind != kind:
            raise ConfigurationError(
                f"remote instrument {name!r} is a {entry_kind}, not a {kind}"
            )
        offset = self.layout.offsets[position]
        if kind == "counter":
            return _ShardCounter(self, offset)
        if kind == "gauge":
            return _ShardGauge(self, offset)
        return _ShardHistogram(self, offset, bounds)

    def counter(self, name: str, **labels) -> _ShardCounter:
        """Handle for a counter slot declared in the layout."""
        return self._handle("counter", name, labels)

    def gauge(self, name: str, **labels) -> _ShardGauge:
        """Handle for a gauge slot declared in the layout."""
        return self._handle("gauge", name, labels)

    def histogram(self, name: str, **labels) -> _ShardHistogram:
        """Handle for a histogram slot group declared in the layout."""
        return self._handle("histogram", name, labels)

    def close(self) -> None:
        """Unmap the segment (the parent owns unlinking)."""
        self._header = None
        self._slots = None
        try:
            self._segment.close()
        except OSError:  # pragma: no cover - platform dependent
            pass


class MetricsHarvester:
    """Parent-side owner of worker telemetry segments; merges on demand.

    Creates one segment per worker slot up front (workers attach by
    name, so a respawned worker resumes incrementing the same slots) and
    folds snapshot *deltas* into the parent registry under an extra
    ``worker`` label.  Delta merging is what makes harvest crash-safe:

    * a dead worker's last-published values are still mapped — the next
      harvest collects them (nothing lost);
    * harvesting twice without new updates adds zero (nothing double-
      counted), regardless of kills and respawns in between.

    A worker SIGKILLed mid-update leaves its seqlock odd forever; after
    a bounded retry the harvester accepts the torn snapshot (at most one
    update is ambiguous) and counts it in ``torn_snapshots``.
    """

    #: Snapshot attempts before accepting a torn read.
    _SNAPSHOT_TRIES = 4

    def __init__(self, layout: RemoteMetricsLayout, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(f"harvester needs >= 1 worker, got {workers}")
        self.layout = layout
        self.workers = workers
        self.torn_snapshots = 0
        self.harvests = 0
        self._closed = False
        self._segments: list = []
        self._headers: list[np.ndarray] = []
        self._slot_views: list[np.ndarray] = []
        self._last = [
            np.zeros(layout.slots, dtype=_SLOT_DTYPE) for _ in range(workers)
        ]
        token = f"{os.getpid():x}-{next(_SEGMENT_IDS):x}"
        from multiprocessing import shared_memory

        try:
            for worker in range(workers):
                segment = shared_memory.SharedMemory(
                    name=f"repro-obsw-{token}-{worker}",
                    create=True,
                    size=layout.nbytes,
                )
                header = np.ndarray(
                    _HEADER_COUNT, dtype=_HEADER_DTYPE, buffer=segment.buf
                )
                header[...] = 0
                slots = np.ndarray(
                    layout.slots,
                    dtype=_SLOT_DTYPE,
                    buffer=segment.buf,
                    offset=_HEADER_NBYTES,
                )
                slots[...] = 0.0
                self._segments.append(segment)
                self._headers.append(header)
                self._slot_views.append(slots)
        except BaseException:
            self.destroy()
            raise

    def segment_name(self, worker: int) -> str:
        """Name of ``worker``'s telemetry segment."""
        return self._segments[worker].name

    def worker_telemetry(self, worker: int) -> tuple:
        """Picklable attach instructions for one worker:
        ``(layout, segment name)``."""
        return (self.layout, self.segment_name(worker))

    def updates_published(self, worker: int) -> int:
        """The worker's own count of published updates (header word)."""
        return int(self._headers[worker][HEADER_UPDATES])

    def _snapshot(self, worker: int) -> tuple[np.ndarray, bool]:
        """Seqlock-consistent copy of one worker's slots.

        Returns ``(snapshot, torn)``; ``torn`` is True when the seqlock
        never stabilised (worker died mid-update) and the copy may split
        one update.
        """
        header = self._headers[worker]
        view = self._slot_views[worker]
        snapshot = np.array(view, copy=True)
        for _ in range(self._SNAPSHOT_TRIES):
            seq_before = int(header[HEADER_SEQ])
            snapshot = np.array(view, copy=True)
            seq_after = int(header[HEADER_SEQ])
            if seq_before == seq_after and seq_after % 2 == 0:
                return snapshot, False
        return snapshot, True

    def harvest(self, registry: MetricsRegistry) -> dict:
        """Merge every worker's new updates into ``registry``.

        Returns a summary: workers scanned, updates published in total,
        torn snapshots observed so far.
        """
        layout = self.layout
        merged = 0
        for worker in range(self.workers):
            snapshot, torn = self._snapshot(worker)
            if torn:
                self.torn_snapshots += 1
            last = self._last[worker]
            delta = snapshot - last
            # Slots are monotone except gauges; negative drift can only
            # come from a torn read splitting one update — clamp it.
            np.maximum(delta, 0.0, out=delta)
            worker_label = str(worker)
            for position, entry in enumerate(layout.entries):
                kind, name, help_text, labels, bounds = entry
                offset = layout.offsets[position]
                label_names = tuple(key for key, _ in labels) + ("worker",)
                label_values = dict(labels, worker=worker_label)
                if kind == "counter":
                    amount = float(delta[offset])
                    if amount > 0.0:
                        family = registry.counter(name, help_text, labels=label_names)
                        family.labels(**label_values).inc(amount)
                        merged += 1
                elif kind == "gauge":
                    family = registry.gauge(name, help_text, labels=label_names)
                    family.labels(**label_values).set(float(snapshot[offset]))
                else:
                    bucket_count = len(bounds) + 1
                    count_delta = int(round(float(delta[offset + bucket_count + 1])))
                    if count_delta <= 0:
                        continue
                    family = registry.histogram(
                        name, help_text, labels=label_names, buckets=bounds
                    )
                    child = family.labels(**label_values)
                    for index in range(bucket_count):
                        child.counts[index] += int(round(float(delta[offset + index])))
                    child.sum += float(delta[offset + bucket_count])
                    child.count += count_delta
                    merged += 1
            self._last[worker] = snapshot
        self.harvests += 1
        return {
            "workers": self.workers,
            "merged_children": merged,
            "torn_snapshots": self.torn_snapshots,
            "updates_published": sum(
                self.updates_published(worker) for worker in range(self.workers)
            ),
        }

    def destroy(self) -> None:
        """Close and unlink every telemetry segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._headers = []
        self._slot_views = []
        for segment in self._segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - platform dependent
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsHarvester(workers={self.workers}, "
            f"slots={self.layout.slots}, harvests={self.harvests})"
        )
