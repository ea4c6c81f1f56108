"""The sharded serving engine: shard decomposition + epoch-safe cache.

:class:`ShardedEngine` is the serving layer the ROADMAP's scaling arc
points at.  It *is* a :class:`~repro.methods.base.RangeSumMethod` — the
same contract as every structure in the library — but internally it
partitions the cube along its leading dimension into K independent
shards (each one any registered method, DDC by default), and serves:

* **point updates** by routing each delta to its owning shard and
  bumping that shard's epoch counter;
* **range / prefix queries** by decomposing the range into at most one
  local sub-range per overlapping shard, reading the shards in turn on
  the calling thread (``executor="process"`` gathers them off
  shared-memory slabs whose writes a pool of worker processes applies),
  and summing the partial results — correct because the slabs are
  disjoint.  A one-range miss is a batch of one: every read takes the
  same fan-out, and a shard's error propagates from it unchanged;
* **batches** by grouping all sub-queries / updates per shard first, so
  each shard answers its whole share through one ``range_sum_many`` /
  ``add_many`` call and the per-shard path-sharing machinery keeps
  working inside the shard;
* **repeat reads** from a hot-range LRU cache validated by the per-shard
  epochs and a log of the cells written since, so a read-heavy workload
  skips tree traversal entirely, a write stales only the cached ranges
  that contain its cell, and interleaved writes stay exactly visible.

Concurrency model: one thread owns an engine (``docs/api.md``).  The
engine takes no lock: every public operation runs to completion on the
owner's thread, so a read's fan-out never interleaves with a write, and
the epoch list and the cache need no guard.  The HTTP server's event
loop is that owner for a served engine.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import geometry
from ..counters import OpCounter
from ..exceptions import ConfigurationError
from ..methods.base import RangeSumMethod
from ..methods.registry import method_class
from ..obs import NULL_OBS
from .cache import MISS, EpochLruCache
from .sharding import ShardPlan

__all__ = ["ShardedEngine"]


def _add_answers(shard, sub_queries: Sequence, totals: list) -> None:
    """Answer one shard's ``(key index, local low, local high)``
    sub-queries — a single range through the scalar entry point, more
    through the shard's batch path — adding each into its key's total."""
    if len(sub_queries) == 1:
        key_index, local_low, local_high = sub_queries[0]
        totals[key_index] = totals[key_index] + shard.range_sum(local_low, local_high)
        return
    values = shard.range_sum_many(
        [(local_low, local_high) for _, local_low, local_high in sub_queries]
    )
    for (key_index, _, _), value in zip(sub_queries, values):
        totals[key_index] = totals[key_index] + value


class ShardedEngine(RangeSumMethod):
    """K-sharded, cache-fronted serving engine over any registered method.

    Args:
        shape: logical cube shape; the leading dimension is sharded.
        shards: number of slabs (1 degenerates to a cached passthrough).
        method: registry name of the per-shard structure (default DDC).
        workers: worker processes for ``executor="process"``
            (``None``/0 let the pool size itself).  ``workers >= 2``
            with any other executor is a
            :class:`~repro.exceptions.ConfigurationError`: there is no
            in-process pool to size.
        cache_size: LRU capacity in entries; 0 disables result caching.
        dtype: value dtype, forwarded to every shard.
        method_kwargs: extra keyword arguments for shard construction.
        obs: optional :class:`~repro.obs.Observability` facade.  When
            wired, the engine feeds request/shard latency histograms,
            cache-outcome counters, epoch/occupancy gauges, one span
            tree per request (an ``engine.*`` root, one
            ``shard.range_sum`` per shard touched), and the slow-query
            log.  The engine is the instrumented layer: its shards carry
            no facade.  Defaults to the shared disabled facade, under
            which a cache hit reads no clock and opens no span.
        resilience: accepted and ignored, because ``benchmarks/e2e/``
            still passes it (:mod:`repro.engine.resilience`; ROADMAP
            item 8(i) deletes it).  Every shard is read once and its
            error propagates (``docs/engine.md``, "Errors").
        executor: ``"serial"`` or ``"process"``; ``None`` (the default)
            means ``"serial"``.  Either way the shards are read in turn
            on the calling thread.  ``"process"`` replaces the
            in-process shards with
            :class:`~repro.engine.process.ShmShardReplica` proxies over
            a :class:`~repro.engine.shm.ShardSlabStore` — every shard's
            payload becomes a shared-memory prefix-sum slab whose writes
            a persistent worker-process pool applies (``method`` then
            only labels reports; the slab layout and its read kernel are
            fixed).
    """

    name = "engine"

    def __init__(
        self,
        shape: Sequence[int],
        shards: int = 4,
        method: str = "ddc",
        workers: int | None = None,
        cache_size: int = 1024,
        dtype=np.int64,
        method_kwargs: dict | None = None,
        obs=None,
        resilience=None,
        executor: str | None = None,
    ) -> None:
        super().__init__(shape, dtype=dtype)
        self.plan = ShardPlan(self.shape, shards)
        self.method_name = method
        self.workers = workers
        self._method_kwargs = dict(method_kwargs or {})
        self.obs = obs if obs is not None else NULL_OBS
        executor_kind = "serial" if executor is None else executor
        if executor_kind not in ("serial", "process"):
            raise ConfigurationError(
                f"unknown executor kind {executor_kind!r} "
                f"(expected 'serial' or 'process')"
            )
        if workers is not None and workers >= 2 and executor_kind != "process":
            raise ConfigurationError(
                f"workers={workers} sizes the worker-process pool and needs "
                f'executor="process"; the in-process executor is serial'
            )
        self.executor_kind = executor_kind
        shard_cls = method_class(method)
        self._store = None
        self._process_pool = None
        if executor_kind == "process":
            from .process import ProcessExecutor, ShmShardReplica
            from .shm import ShardSlabStore

            self._store = ShardSlabStore(self.plan, dtype=self.dtype)
            self._process_pool = ProcessExecutor(
                self._store, workers=workers, obs=self.obs
            )
            self._shards: list[RangeSumMethod] = [
                ShmShardReplica(
                    self._process_pool,
                    index,
                    self.plan.shard_shape(index),
                    dtype=self.dtype,
                )
                for index in range(self.plan.count)
            ]
        else:
            self._shards = [
                shard_cls(
                    self.plan.shard_shape(index),
                    dtype=self.dtype,
                    **self._method_kwargs,
                )
                for index in range(self.plan.count)
            ]
        self._epochs = [0] * self.plan.count
        self._cache = EpochLruCache(cache_size)
        # Shard-span attributes: the shard index and, in process mode, the
        # pool lane that owns it, so slow-query records and Chrome traces
        # can attribute work to shards and workers.
        self._shard_attrs: list[dict] = [
            {"shard": index}
            if self._process_pool is None
            else {"shard": index, "worker": self._process_pool.lane_of(index)}
            for index in range(self.plan.count)
        ]

    def _bind_instruments(self, obs) -> None:
        """Register the engine's families and bind every child a
        request uses, so a request makes no ``labels()`` lookup (a
        disabled facade hands out the no-op instrument for all)."""
        metrics = obs.metrics
        shards = [str(index) for index in range(self.plan.count)]
        request_seconds = metrics.histogram(
            "repro_engine_request_seconds",
            "End-to-end engine request latency, per operation.",
            labels=("op",),
        )
        self._obs_request_seconds = {
            op: request_seconds.labels(op=op)
            for op in ("range_sum", "range_sum_many", "add", "add_many")
        }
        shard_seconds = metrics.histogram(
            "repro_engine_shard_seconds",
            "Per-shard sub-operation latency.",
            labels=("shard", "op"),
        )
        self._obs_shard_read_seconds = [
            shard_seconds.labels(shard=shard, op="range_sum") for shard in shards
        ]
        self._obs_shard_add_seconds = [
            shard_seconds.labels(shard=shard, op="add") for shard in shards
        ]
        lookups = metrics.counter(
            "repro_engine_cache_lookups_total",
            "Result-cache lookups by outcome: hit, miss (absent), or "
            "stale (present but epoch-invalidated).",
            labels=("result",),
        )
        self._obs_cache_lookups = {
            result: lookups.labels(result=result)
            for result in ("hit", "miss", "stale")
        }
        self._obs_fanout_wait = metrics.histogram(
            "repro_engine_fanout_wait_seconds",
            "Wall time a multi-shard read spends in the shard fan-out.",
        ).labels()
        self._obs_cache_entries = metrics.gauge(
            "repro_engine_cache_entries",
            "Live entries in the epoch-validated result cache.",
        ).labels()
        shard_epoch = metrics.gauge(
            "repro_engine_shard_epoch",
            "Current write epoch per shard.",
            labels=("shard",),
        )
        self._obs_shard_epoch = [shard_epoch.labels(shard=shard) for shard in shards]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_array(cls, array: np.ndarray, **kwargs) -> "ShardedEngine":
        """Build an engine whose shards bulk-load slabs of ``array``.

        Each shard is constructed through its method's own vectorised
        ``from_array`` on the matching leading-dimension slab — the
        shard-compatible bulk build, K small builds instead of one big
        one (and they are independent, so a future process-level build
        can run them in parallel).
        """
        array = np.asarray(array)
        engine = cls(array.shape, dtype=kwargs.pop("dtype", array.dtype), **kwargs)
        if engine._store is not None:
            # Process mode: the payload lives in the shared slab
            # store; recomputing the prefix slabs in place is the bulk
            # load (attached workers see the pages directly).  No
            # posted delta may race the rewrite.
            engine._process_pool.flush()
            engine._store.load_array(array.astype(engine.dtype))
        else:
            shard_cls = method_class(engine.method_name)
            for index in range(engine.plan.count):
                slab = array[engine.plan.slab(index)].astype(engine.dtype)
                engine._shards[index] = shard_cls.from_array(
                    slab, dtype=engine.dtype, **engine._method_kwargs
                )
        # The epoch bumps invalidate anything cached against the
        # empty cube.
        for index in range(engine.plan.count):
            engine._epochs[index] += 1
            engine._obs_shard_epoch[index].set(engine._epochs[index])
        return engine

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def add(self, cell: Sequence[int] | int, delta) -> None:
        """Route one point update to its owning shard (epoch-bumping).

        The serving loop's write path: one owner lookup, one scalar
        shard update, one epoch bump — no batch packaging.
        """
        cell = geometry.normalize_cell(cell, self.shape)
        if delta == 0:
            return
        index = self.plan.owner(cell)
        obs = self._obs
        traced = obs.enabled
        if not traced:
            self._add_one(index, cell, delta)
            return
        start = obs.clock.now()
        with obs.tracer.span("engine.add", shard=index):
            epoch = self._add_one(index, cell, delta)
        elapsed = obs.clock.now() - start
        self._obs_request_seconds["add"].observe(elapsed)
        self._obs_shard_add_seconds[index].observe(elapsed)
        self._obs_shard_epoch[index].set(epoch)

    def _add_one(self, index: int, cell: tuple, delta) -> int:
        """Apply one routed update.  Returns the shard's post-update
        epoch."""
        shard = self._shards[index]
        self.stats.touch(shard)
        shard.add(self.plan.to_local(index, cell), delta)
        self._epochs[index] += 1
        epoch = self._epochs[index]
        self._cache.log_cell(index, epoch, cell)
        return epoch

    def add_many(self, updates: Sequence[tuple]) -> None:
        """Apply a write batch: group per shard, one epoch bump per shard.

        Updates are combined per cell and grouped by owning shard, then
        each touched shard applies its whole share through its own
        ``add_many`` (the per-shard batch machinery — grouped descents,
        cascade crossovers — keeps working).  The shard's epoch advances
        once per batch and the cache logs the batch's cells, so only
        cached ranges containing one of them go stale.
        """
        combined = self._combined_updates(updates)
        if not combined:
            return
        grouped: dict[int, tuple[list[tuple], list[tuple]]] = {}
        for cell, delta in combined:
            index = self.plan.owner(cell)
            share = grouped.get(index)
            if share is None:
                share = grouped[index] = ([], [])
            share[0].append((self.plan.to_local(index, cell), delta))
            share[1].append(cell)
        obs = self._obs
        traced = obs.enabled
        start = obs.clock.now() if traced else 0.0
        with obs.tracer.span(
            "engine.add_many", updates=len(combined), shards=len(grouped)
        ):
            epochs = self._add_groups(grouped)
        if traced:
            self._obs_request_seconds["add_many"].observe(obs.clock.now() - start)
            for index, epoch in epochs.items():
                self._obs_shard_epoch[index].set(epoch)

    def _add_groups(
        self, grouped: dict[int, tuple[list[tuple], list[tuple]]]
    ) -> dict[int, int]:
        """Apply per-shard ``(local updates, global cells)`` groups.
        Returns the post-batch epoch of every touched shard."""
        epochs: dict[int, int] = {}
        for index in sorted(grouped):
            updates, cells = grouped[index]
            shard = self._shards[index]
            self.stats.touch(shard)
            shard.add_many(updates)
            self._epochs[index] += 1
            epochs[index] = epoch = self._epochs[index]
            self._cache.log_cells(index, epoch, cells)
        return epochs

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def prefix_sum(self, cell: Sequence[int] | int):
        """Origin-anchored range sum (served through the cache)."""
        cell = geometry.normalize_cell(cell, self.shape)
        return self.range_sum((0,) * self.dims, cell)

    def range_sum(self, low: Sequence[int] | int, high: Sequence[int] | int):
        """One cached, shard-decomposed range sum.

        The serving loop's read path: a hit is one LRU probe; a miss is a
        batch of one through the same fan-out as
        :meth:`range_sum_many`, without the batch's grouping.  With
        observability wired
        the lookup outcome is classified hit / miss / stale (present but
        epoch-invalidated) and every miss is offered to the slow-query
        log with its span tree and the OpCounter delta of the shards
        that computed it.
        """
        key = geometry.normalize_range(low, high, self.shape)
        obs = self._obs
        traced = obs.enabled
        start = obs.clock.now() if traced else 0.0
        invalidations = self._cache.invalidations
        value = self._cache.get(key, self._epochs)
        hit = value is not MISS
        if hit:
            self.stats.cache_hits += 1
        else:
            self.stats.cache_misses += 1
        if not traced:
            return value if hit else self._compute([key], None)[0][0]
        outcome = "hit" if hit else (
            "stale" if self._cache.invalidations > invalidations else "miss"
        )
        ops = None
        with obs.tracer.span("engine.range_sum", cache=outcome) as span:
            if not hit:
                (value,), ops = self._compute([key], span)
        self._obs_cache_lookups[outcome].inc()
        self._observe_read("range_sum", start, span, ops, cache=outcome)
        return value

    def prefix_sum_many(self, cells: Sequence) -> list:
        """Batch prefix queries as origin-anchored batch range queries."""
        origin = (0,) * self.dims
        return self.range_sum_many(
            [(origin, geometry.normalize_cell(cell, self.shape)) for cell in cells]
        )

    def range_sum_many(self, ranges: Sequence) -> list:
        """Batch range queries: cache first, then per-shard fan-out.

        Each query is looked up in the cache; the distinct misses are
        decomposed, their sub-queries grouped per shard, and every
        touched shard answers its group through one ``range_sum_many``
        call in the fan-out.  Duplicate misses inside
        the batch share one computation and count as hits.
        """
        queries = [self._query_bounds(item) for item in ranges]
        if not queries:
            return []
        results: list = [None] * len(queries)
        obs = self._obs
        traced = obs.enabled
        start = obs.clock.now() if traced else 0.0
        with obs.tracer.span(
            "engine.range_sum_many", queries=len(queries)
        ) as span:
            hits, misses, stale, ops = self._serve_batch(
                queries, results, span if traced else None
            )
            span.set(hits=hits, misses=misses, stale=stale)
        if traced:
            lookups = self._obs_cache_lookups
            lookups["hit"].inc(hits)
            lookups["miss"].inc(misses - stale)
            lookups["stale"].inc(stale)
            self._observe_read(
                "range_sum_many", start, span, ops,
                queries=len(queries), cache_hits=hits,
            )
        return results

    def _observe_read(self, op: str, start: float, span, ops, **attributes) -> None:
        """Time a traced read and offer a miss (``ops`` not ``None``) to
        the slow-query log."""
        elapsed = self._obs.clock.now() - start
        self._obs_request_seconds[op].observe(elapsed)
        if ops is not None:
            self._obs.slow_log.consider(
                span, ops, elapsed, op=op, **attributes,
                executor=self.executor_kind,
            )

    def _serve_batch(
        self, queries: list[tuple], results: list, parent
    ) -> tuple[int, int, int, OpCounter | None]:
        """Serve one query batch.

        Fills ``results`` in place and returns ``(hits, distinct misses,
        stale lookups, ops)`` where ``ops`` is the OpCounter delta of the
        miss computation (``None`` when obs is off or nothing missed).
        ``parent`` is the request span, ``None`` with obs off.
        """
        missing: dict[tuple, list[int]] = {}
        hits = 0
        invalidations = self._cache.invalidations
        for position, key in enumerate(queries):
            if key in missing:
                self.stats.cache_hits += 1
                hits += 1
                missing[key].append(position)
                continue
            value = self._cache.get(key, self._epochs)
            if value is not MISS:
                self.stats.cache_hits += 1
                hits += 1
                results[position] = value
            else:
                self.stats.cache_misses += 1
                missing[key] = [position]
        stale = self._cache.invalidations - invalidations
        ops = None
        if missing:
            values, ops = self._compute(list(missing), parent)
            for positions, value in zip(missing.values(), values):
                for position in positions:
                    results[position] = value
        return hits, len(missing), stale, ops

    def _compute(self, keys: list[tuple], parent) -> tuple[list, OpCounter | None]:
        """Answer distinct missing ranges.

        ``parent`` is the request span (``None`` with obs off); shard
        spans name it as their parent, and its being ``None`` is what
        skips the per-shard timing.  Returns ``(values, ops)``: one value
        per key, in order, each cached stamped with the epoch snapshot
        taken before any shard work started, and, with obs on, the
        summed OpCounter deltas of the shards that computed.  A shard's
        error propagates and caches nothing.
        """
        epochs = tuple(self._epochs)
        if len(keys) == 1:
            # One range's pieces are already one per shard, in order.
            work = [
                (index, ((0, low, high),))
                for index, low, high in self.plan.decompose(*keys[0])
            ]
            dependencies = [[index for index, _ in work]]
        else:
            per_shard: dict[int, list[tuple[int, tuple, tuple]]] = {}
            dependencies = []
            for key_index, (low, high) in enumerate(keys):
                touched: list[int] = []
                for index, local_low, local_high in self.plan.decompose(low, high):
                    per_shard.setdefault(index, []).append(
                        (key_index, local_low, local_high)
                    )
                    touched.append(index)
                dependencies.append(touched)
            work = sorted(per_shard.items())
        obs = self._obs
        # A one-shard fan-out's wait is that shard's latency.
        timed = parent is not None and len(work) > 1
        fanout_start = obs.clock.now() if timed else 0.0
        totals = [self._zero()] * len(keys)
        ops = self._fan_out(work, parent, totals)
        if timed:
            self._obs_fanout_wait.observe(obs.clock.now() - fanout_start)
        out: list = []
        for key_index, key in enumerate(keys):
            value = self.dtype.type(totals[key_index])
            self._cache.put(key, value, dependencies[key_index], epochs)
            out.append(value)
        if parent is not None:
            self._obs_cache_entries.set(len(self._cache))
        return out, ops

    def _read(
        self, index: int, sub_queries: Sequence, parent, totals: list
    ) -> OpCounter | None:
        """Answer one shard's ``(key index, local low, local high)``
        sub-queries into ``totals``.

        With a ``parent`` span the read runs under a ``shard.range_sum``
        child span and feeds the shard's latency histogram, and the
        shard's OpCounter delta, returned, rides on the span and is
        summed into the request's slow-log record; untraced, the read
        returns ``None``.
        """
        shard = self._shards[index]
        self.stats.touch(shard)
        if parent is None:
            _add_answers(shard, sub_queries, totals)
            return None
        obs = self._obs
        before = shard.stats.snapshot()
        start = obs.clock.now()
        with obs.tracer.span(
            "shard.range_sum", parent, queries=len(sub_queries),
            **self._shard_attrs[index],
        ) as span:
            _add_answers(shard, sub_queries, totals)
            ops = shard.stats.diff(before)
            span.set(node_visits=ops.node_visits, cell_ops=ops.total_cell_ops)
        self._obs_shard_read_seconds[index].observe(obs.clock.now() - start)
        return ops

    def _fan_out(self, work: list, parent, totals: list) -> OpCounter | None:
        """Read every ``(shard index, sub-queries)`` item of ``work`` in
        turn, on the calling thread, adding each answer into its key's
        entry of ``totals``.

        Returns the summed OpCounter deltas of the shards (``None``
        untraced).  A shard's error propagates unchanged: the answer is
        exact or there is none.
        """
        ops = None
        for index, sub_queries in work:
            delta = self._read(index, sub_queries, parent, totals)
            if delta is not None:
                if ops is None:
                    ops = delta
                else:
                    ops.merge(delta)
        return ops

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shards(self) -> tuple[RangeSumMethod, ...]:
        """The per-shard structures (read-only view for tests/benches)."""
        return tuple(self._shards)

    @property
    def process_pool(self):
        """The worker-process pool, or None outside process mode."""
        return self._process_pool

    def pool_info(self) -> dict | None:
        """Worker-pool snapshot (None outside process mode)."""
        if self._process_pool is None:
            return None
        return self._process_pool.pool_info()

    def harvest_worker_metrics(self) -> dict | None:
        """Merge the workers' shared-memory metric shards into the
        parent registry (see :class:`~repro.obs.remote.MetricsHarvester`).

        Returns the harvest summary dict, or None outside process mode
        or when remote worker metrics are disabled.
        """
        if self._process_pool is None:
            return None
        return self._process_pool.harvest()

    @property
    def epochs(self) -> tuple[int, ...]:
        """Current per-shard write epochs."""
        return tuple(self._epochs)

    def cache_info(self) -> dict:
        """Cache occupancy and hit/miss tallies as one plain dict."""
        return {
            "size": len(self._cache),
            "capacity": self._cache.capacity,
            "hits": self.stats.cache_hits,
            "misses": self.stats.cache_misses,
            "hit_rate": self.stats.cache_hit_rate,
            "invalidations": self._cache.invalidations,
            "revalidations": self._cache.revalidations,
            "evictions": self._cache.evictions,
            "stale_evictions": self._cache.stale_evictions,
        }

    def clear_cache(self) -> None:
        """Drop all cached results (epochs keep advancing monotonically)."""
        self._cache.clear()

    def aggregate_stats(self) -> OpCounter:
        """Engine-level counters merged with every shard's counters."""
        merged = self.stats.snapshot()
        for shard in self._shards:
            merged.merge(shard.stats)
        return merged

    def reset_stats(self) -> None:
        """Zero the engine counter and every shard counter."""
        self.stats.reset()
        for shard in self._shards:
            shard.stats.reset()

    def shard_report(self) -> list[dict]:
        """One row per shard: span, epoch, storage, and op tallies."""
        rows = []
        for span, epoch, shard in zip(self.plan.spans, self._epochs, self._shards):
            rows.append(
                {
                    "shard": span.index,
                    "span": [span.start, span.stop],
                    "epoch": epoch,
                    "memory_cells": shard.memory_cells(),
                    "node_visits": shard.stats.node_visits,
                    "cell_reads": shard.stats.cell_reads,
                    "cell_writes": shard.stats.cell_writes,
                }
            )
        return rows

    def memory_cells(self) -> int:
        """Stored cells across all shards (the cache is not counted)."""
        return sum(shard.memory_cells() for shard in self._shards)

    def resilience_info(self) -> None:
        """Always ``None``: the engine has no failure policy.  Kept for
        ``benchmarks/e2e/inproc.py`` until ROADMAP item 8(i) drops the
        read."""
        return None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """In process mode stop the worker pool and unlink the
        shared-memory slabs (idempotent); a serial engine holds nothing
        to release."""
        if self._process_pool is not None:
            self._process_pool.shutdown()
        if self._store is not None:
            self._store.destroy()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedEngine(shape={self.shape}, shards={self.plan.count}, "
            f"method={self.method_name!r}, workers={self.workers}, "
            f"cache={self._cache.capacity})"
        )
