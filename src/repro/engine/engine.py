"""The sharded serving engine: shard decomposition + epoch-safe cache.

:class:`ShardedEngine` is the serving layer the ROADMAP's scaling arc
points at.  It *is* a :class:`~repro.methods.base.RangeSumMethod` — the
same contract as every structure in the library — but internally it
partitions the cube along its leading dimension into K independent
shards (each one any registered method, DDC by default), and serves:

* **point updates** by routing each delta to its owning shard and
  bumping that shard's epoch counter;
* **range / prefix queries** by decomposing the range into at most one
  local sub-range per overlapping shard, fanning the sub-queries out
  over an executor (every executor runs them in turn on the calling
  thread; ``executor="process"`` gathers them off shared-memory slabs
  whose writes a pool of worker processes applies), and summing the
  partial results — correct because the slabs are disjoint;
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

import random
from functools import partial
from typing import Sequence

import numpy as np

from .. import geometry
from ..counters import OpCounter
from ..exceptions import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ShardFailedError,
)
from ..methods.base import RangeSumMethod
from ..methods.registry import method_class
from ..obs import NULL_OBS
from .cache import MISS, EpochLruCache
from .executor import SerialExecutor
from .resilience import (
    BREAKER_CLOSED,
    CircuitBreaker,
    Deadline,
    PartialResult,
    ResiliencePolicy,
)
from .sharding import ShardPlan

__all__ = ["ShardedEngine"]


def _compute(shard, sub_queries: list) -> list:
    """Answer one shard's ``(key index, local low, local high)``
    sub-queries: a single range through the scalar entry point, more
    through the shard's batch path."""
    if len(sub_queries) == 1:
        _, local_low, local_high = sub_queries[0]
        return [shard.range_sum(local_low, local_high)]
    return shard.range_sum_many(
        [(local_low, local_high) for _, local_low, local_high in sub_queries]
    )


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
        resilience: optional
            :class:`~repro.engine.resilience.ResiliencePolicy`.  When
            set, every read fan-out runs with deadline budgets,
            retry-with-backoff, per-shard circuit breakers, and the
            policy's graceful-degradation mode (see
            ``docs/resilience.md``).  ``None`` (the default) keeps the
            exact PR 3 fast path.
        executor: either a pre-built executor (anything with the
            ``map`` / ``try_map`` / ``shutdown`` surface — this is how
            tests and the chaos CLI interpose a
            :class:`~repro.engine.resilience.FaultInjector`) or one of
            the strings ``"serial"`` and ``"process"``; ``None`` (the
            default) means ``"serial"``.  ``"process"`` replaces the
            in-process shards with
            :class:`~repro.engine.process.ShmShardReplica` proxies over
            a :class:`~repro.engine.shm.ShardSlabStore` — every shard's
            payload becomes a shared-memory prefix-sum slab served by a
            persistent worker-process pool, side-stepping the GIL
            entirely (``method`` then only labels reports; the slab
            layout and its read kernel are fixed).
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
        resilience: ResiliencePolicy | None = None,
        executor=None,
    ) -> None:
        super().__init__(shape, dtype=dtype)
        self.plan = ShardPlan(self.shape, shards)
        self.method_name = method
        self.workers = workers
        self._method_kwargs = dict(method_kwargs or {})
        self.obs = obs if obs is not None else NULL_OBS
        executor_kind = executor if isinstance(executor, str) else None
        if executor_kind is not None:
            executor = None
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
        if executor is not None:
            self._executor = executor
            self.executor_kind = "custom"
        elif executor_kind == "process":
            self._executor = self._process_pool
            self.executor_kind = "process"
        else:
            self._executor = SerialExecutor()
            self.executor_kind = "serial"
        self._epochs = [0] * self.plan.count
        self._cache = EpochLruCache(cache_size)
        self.policy = resilience
        self._breakers: list[CircuitBreaker] | None = (
            [CircuitBreaker(resilience) for _ in range(self.plan.count)]
            if resilience is not None
            else None
        )
        self._retry_rng = random.Random(
            resilience.retry_seed if resilience is not None else 0
        )
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
        """Register the engine's families and bind every child a healthy
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
            "Wall time a multi-shard read spends in the executor fan-out.",
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
        # These fire only on a failing or degraded fan-out.
        self._obs_retries = metrics.counter(
            "repro_engine_retries_total",
            "Shard sub-operations re-attempted after a failure.",
            labels=("shard",),
        )
        self._obs_timeouts = metrics.counter(
            "repro_engine_timeouts_total",
            "Shard sub-operations abandoned because the request deadline "
            "budget ran out.",
        )
        self._obs_breaker_transitions = metrics.counter(
            "repro_engine_breaker_transitions_total",
            "Circuit-breaker state transitions per shard.",
            labels=("shard", "to"),
        )
        self._obs_breaker_state = metrics.gauge(
            "repro_engine_breaker_state",
            "Circuit-breaker state per shard "
            "(0 = closed, 1 = half-open, 2 = open).",
            labels=("shard",),
        )
        self._obs_degraded = metrics.counter(
            "repro_engine_degraded_total",
            "Degraded responses by mode: partial (marked, missing shards "
            "omitted) or fallback (exact, recomputed off the fan-out path).",
            labels=("mode",),
        )
        self._obs_backoff = metrics.histogram(
            "repro_engine_backoff_seconds",
            "Retry backoff sleeps between fan-out rounds.",
        )

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

        The serving loop's read path: a hit is one LRU probe; a miss skips the batch bookkeeping and goes
        straight to the per-shard computation.  With observability wired
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
            return value if hit else self._compute_one(key, None)[0]
        outcome = "hit" if hit else (
            "stale" if self._cache.invalidations > invalidations else "miss"
        )
        ops = None
        with obs.tracer.span("engine.range_sum", cache=outcome) as span:
            if not hit:
                value, ops = self._compute_one(key, span)
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
        call — fanned out over the executor.  Duplicate misses inside
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
            answers, ops = self._compute(list(missing), parent)
            for key, value in answers:
                for position in missing[key]:
                    results[position] = value
        return hits, len(missing), stale, ops

    def _read_shard(self, index: int, sub_queries: list, parent) -> tuple:
        """Answer one shard's sub-queries under a ``shard.range_sum`` span
        (child of ``parent``) and its latency histogram.  Returns
        ``(values, ops)``: ``ops``, the shard's OpCounter delta, rides on
        the span and is summed into the request's slow-log record."""
        obs = self._obs
        shard = self._shards[index]
        before = shard.stats.snapshot()
        start = obs.clock.now()
        with obs.tracer.span(
            "shard.range_sum", parent, queries=len(sub_queries),
            **self._shard_attrs[index],
        ) as span:
            values = _compute(shard, sub_queries)
            ops = shard.stats.diff(before)
            span.set(node_visits=ops.node_visits, cell_ops=ops.total_cell_ops)
        self._obs_shard_read_seconds[index].observe(obs.clock.now() - start)
        return values, ops

    def _compute_one(self, key: tuple, parent) -> tuple:
        """Answer one missing range.  Returns ``(value, ops)`` like
        :meth:`_compute`.

        The scalar serving path, with and without a resilience policy:
        no batch dictionaries and no executor dispatch — the shards a
        single range spans are read in turn in the calling thread, and
        under a policy each success lands in its shard's breaker.  The
        read takes the guarded fan-out instead when the policy sets a
        deadline, the executor is not a plain :class:`SerialExecutor`
        (a ``FaultInjector``, the process pool), a touched breaker is
        not closed, or a shard raises.  In the last case the outcomes
        already read become the fan-out's first round, so retries and
        breaker windows come out as if it had run from the start.
        """
        policy = self.policy
        if policy is not None and (
            policy.deadline_seconds is not None
            or type(self._executor) is not SerialExecutor
        ):
            return self._compute_guarded(key, parent)
        pieces = list(self.plan.decompose(*key))
        breakers = self._breakers
        if breakers is not None and any(
            breakers[index].state != BREAKER_CLOSED for index, _, _ in pieces
        ):
            return self._compute_guarded(key, parent)
        epochs = tuple(self._epochs)
        obs = self._obs
        # A one-shard read's wait is that shard's latency.
        timed = parent is not None and len(pieces) > 1
        fanout_start = obs.clock.now() if timed else 0.0
        if breakers is None:
            reads = [self._read_one(parent, piece) for piece in pieces]
        else:
            outcomes = self._executor.try_map(
                partial(self._read_one, parent), pieces
            )
            if any(error is not None for _, error in outcomes):
                # Round 0 in the fan-out's own (sub_queries, values, ops)
                # shape.
                first_round = [
                    (None, error)
                    if error is not None
                    else (([(0, low, high)], [read[0]], read[1]), None)
                    for (_, low, high), (read, error) in zip(pieces, outcomes)
                ]
                return self._compute_guarded(key, parent, first_round)
            now = obs.clock.now()
            for index, _, _ in pieces:
                breakers[index].record_success(now)
            reads = [read for read, _ in outcomes]
        if timed:
            self._obs_fanout_wait.observe(obs.clock.now() - fanout_start)
        total = self._zero()
        ops = None
        for value, delta in reads:
            total = total + value
            if ops is None:
                ops = delta
            elif delta is not None:
                ops.merge(delta)
        value = self.dtype.type(total)
        self._cache.put(key, value, [index for index, _, _ in pieces], epochs)
        if parent is not None:
            self._obs_cache_entries.set(len(self._cache))
        return value, ops

    def _read_one(self, parent, piece: tuple) -> tuple:
        """Read one ``(shard index, local low, local high)`` piece of a
        scalar miss.  Returns ``(value, ops)``."""
        index, local_low, local_high = piece
        shard = self._shards[index]
        self.stats.touch(shard)
        if parent is None:
            return shard.range_sum(local_low, local_high), None
        (value,), ops = self._read_shard(index, [(0, local_low, local_high)], parent)
        return value, ops

    def _compute_guarded(self, key: tuple, parent, first_round=None) -> tuple:
        """One range through the guarded fan-out."""
        ((_, value),), ops = self._compute([key], parent, first_round)
        return value, ops

    def _compute(
        self, keys: list[tuple], parent, first_round: list | None = None
    ) -> tuple[list[tuple], OpCounter | None]:
        """Answer distinct missing ranges.

        ``parent`` is the request span (``None`` with obs off); shard
        spans name it as their parent, and its being ``None`` is what
        skips the per-shard timing.  Returns ``(answers, ops)``:
        ``(key, value)`` pairs, every value cached stamped with the epoch
        snapshot taken before any shard work started, and — with obs
        on — the summed OpCounter deltas of the shards that computed.
        ``first_round`` is a resilient fan-out's round-0 outcomes when
        the scalar path already read them (see
        :meth:`_resilient_fanout`).
        """
        epochs = tuple(self._epochs)
        per_shard: dict[int, list[tuple[int, tuple, tuple]]] = {}
        dependencies: list[list[int]] = []
        for key_index, (low, high) in enumerate(keys):
            touched: list[int] = []
            for shard_index, local_low, local_high in self.plan.decompose(
                low, high
            ):
                per_shard.setdefault(shard_index, []).append(
                    (key_index, local_low, local_high)
                )
                touched.append(shard_index)
            dependencies.append(touched)

        obs = self._obs

        def run_shard(item: tuple[int, list[tuple[int, tuple, tuple]]]):
            shard_index, sub_queries = item
            shard = self._shards[shard_index]
            self.stats.touch(shard)
            if parent is None:
                return sub_queries, _compute(shard, sub_queries), None
            return (sub_queries, *self._read_shard(shard_index, sub_queries, parent))

        totals = [self._zero() for _ in keys]
        ops = None
        # A one-shard fan-out's wait is that shard's latency.
        timed = parent is not None and len(per_shard) > 1
        fanout_start = obs.clock.now() if timed else 0.0
        if self.policy is None:
            completed = self._executor.map(run_shard, sorted(per_shard.items()))
            missing_by_key: dict[int, set[int]] = {}
        else:
            completed, failed = self._resilient_fanout(
                sorted(per_shard.items()), run_shard, first_round
            )
            missing_by_key = self._degrade(
                failed, per_shard, dependencies, completed
            )
        for sub_queries, values, delta in completed:
            for (key_index, _, _), value in zip(sub_queries, values):
                totals[key_index] = totals[key_index] + value
            if ops is None:
                ops = delta
            elif delta is not None:
                ops.merge(delta)
        if timed:
            self._obs_fanout_wait.observe(obs.clock.now() - fanout_start)

        out: list[tuple] = []
        for key_index, key in enumerate(keys):
            value = self.dtype.type(totals[key_index])
            if key_index in missing_by_key:
                # Degraded: explicitly marked, and never cached — the
                # next lookup must recompute rather than resurrect a
                # partial sum as if it were exact.
                out.append(
                    (key, PartialResult(value, missing_by_key[key_index]))
                )
                continue
            self._cache.put(key, value, dependencies[key_index], epochs)
            out.append((key, value))
        if parent is not None:
            self._obs_cache_entries.set(len(self._cache))
        return out, ops

    # ------------------------------------------------------------------
    # Resilient fan-out (deadlines, retries, breakers, degradation)
    # ------------------------------------------------------------------

    def _resilient_fanout(
        self, items: list[tuple], run_shard, first_round: list | None = None
    ) -> tuple[list, dict]:
        """Fan ``items`` out under the resilience policy.

        Returns ``(completed, failed)`` where ``completed`` holds the
        successful ``run_shard`` results and ``failed`` maps each
        permanently-failed shard index to its final exception.  Each
        round re-submits only the still-failing shards through the
        executor — so an interposed FaultInjector sees every retry —
        with exponential seeded-jitter backoff slept on the injected
        clock between rounds, the whole request bounded by one
        :class:`~repro.engine.resilience.Deadline`, and every outcome
        recorded into the per-shard breakers (whose refusals fail fast
        without touching the shard at all).  ``first_round``, when given,
        stands in for round 0's ``try_map`` outcomes: the scalar path
        hands them over only with every breaker closed and no deadline,
        so round 0 would have run every item.
        """
        policy = self.policy
        clock = self._obs.clock
        deadline = Deadline.after(clock, policy.deadline_seconds)
        pending: dict[int, list] = dict(items)
        attempts: dict[int, int] = {index: 0 for index in pending}
        completed: list = []
        failed: dict[int, Exception] = {}
        round_index = 0
        while pending:
            now = clock.now()
            runnable: list[tuple] = []
            for shard_index in sorted(pending):
                breaker = self._breakers[shard_index]
                state_before = breaker.state
                allowed = breaker.allow(now)
                self._note_breaker(shard_index, state_before, breaker.state)
                if allowed:
                    runnable.append((shard_index, pending[shard_index]))
                else:
                    failed[shard_index] = CircuitOpenError(
                        f"shard {shard_index} circuit breaker is open "
                        f"(failure rate {breaker.failure_rate():.2f})"
                    )
                    del pending[shard_index]
            if not runnable:
                break
            if deadline is not None and deadline.expired(clock):
                for shard_index, _ in runnable:
                    failed[shard_index] = DeadlineExceededError(
                        f"request deadline of {policy.deadline_seconds}s "
                        f"spent before shard {shard_index} was attempted"
                    )
                    self._obs_timeouts.inc()
                    del pending[shard_index]
                break
            if first_round is not None:
                outcomes, first_round = first_round, None
            else:
                timeout = deadline.remaining(clock) if deadline is not None else None
                outcomes = self._executor.try_map(
                    run_shard, runnable, timeout=timeout, clock=clock
                )
            now = clock.now()
            retrying = False
            for (shard_index, _), (value, error) in zip(runnable, outcomes):
                breaker = self._breakers[shard_index]
                state_before = breaker.state
                if error is None:
                    breaker.record_success(now)
                    self._note_breaker(shard_index, state_before, breaker.state)
                    completed.append(value)
                    del pending[shard_index]
                    continue
                breaker.record_failure(now)
                self._note_breaker(shard_index, state_before, breaker.state)
                attempts[shard_index] += 1
                out_of_time = isinstance(error, DeadlineExceededError) or (
                    deadline is not None and deadline.expired(clock)
                )
                if out_of_time or attempts[shard_index] > policy.max_retries:
                    if isinstance(error, DeadlineExceededError):
                        self._obs_timeouts.inc()
                    failed[shard_index] = error
                    del pending[shard_index]
                else:
                    self._obs_retries.labels(shard=str(shard_index)).inc()
                    retrying = True
            if retrying and pending:
                backoff = policy.backoff(round_index, self._retry_rng)
                if deadline is not None:
                    backoff = min(backoff, deadline.remaining(clock))
                if backoff > 0:
                    self._obs_backoff.observe(backoff)
                    clock.sleep(backoff)
            round_index += 1
        return completed, failed

    def _degrade(
        self,
        failed: dict[int, Exception],
        per_shard: dict[int, list],
        dependencies: list[list[int]],
        completed: list,
    ) -> dict[int, set[int]]:
        """Apply the degradation policy to permanently-failed shards.

        * ``strict`` — raise: :class:`DeadlineExceededError` when the
          budget ran out, else :class:`ShardFailedError` naming every
          failed shard (chained to the first underlying error).
        * ``fallback`` — recompute each failed shard's sub-queries
          directly (the executor-free path), append the exact results to
          ``completed``, and return no missing keys.
        * ``partial`` — return ``{key_index: missing shard set}`` so
          the caller wraps affected answers in
          :class:`~repro.engine.resilience.PartialResult`.
        """
        if not failed:
            return {}
        policy = self.policy
        if policy.degradation == "strict":
            deadline_errors = [
                error
                for error in failed.values()
                if isinstance(error, DeadlineExceededError)
            ]
            if deadline_errors:
                raise deadline_errors[0]
            first = next(iter(failed.values()))
            raise ShardFailedError(
                "shard sub-operations failed after retries: "
                + ", ".join(
                    f"shard {index}: {error}" for index, error in sorted(failed.items())
                )
            ) from first
        if policy.degradation == "fallback":
            for shard_index in sorted(failed):
                sub_queries = per_shard[shard_index]
                shard = self._shards[shard_index]
                self.stats.touch(shard)
                # Proxy shards (process mode) provide an executor-free
                # direct reader over the shared slab — the fallback must
                # not depend on the very worker that just failed.
                fallback = getattr(shard, "fallback_target", None)
                target = fallback() if fallback is not None else shard
                with self._obs.span("shard.fallback", shard=shard_index):
                    values = _compute(target, sub_queries)
                completed.append((sub_queries, values, None))
                self._obs_degraded.labels(mode="fallback").inc()
            return {}
        # partial: name the missing shards per affected key
        missing_by_key: dict[int, set[int]] = {}
        failed_shards = set(failed)
        for key_index, touched in enumerate(dependencies):
            gone = failed_shards.intersection(touched)
            if gone:
                missing_by_key[key_index] = gone
                self._obs_degraded.labels(mode="partial").inc()
        return missing_by_key

    def _note_breaker(self, shard_index: int, before: str, after: str) -> None:
        """Emit breaker transition/state instruments on a state change."""
        if before == after or not self._obs.enabled:
            return
        self._obs_breaker_transitions.labels(
            shard=str(shard_index), to=after
        ).inc()
        self._obs_breaker_state.labels(shard=str(shard_index)).set(
            self._breakers[shard_index].gauge_value
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shards(self) -> tuple[RangeSumMethod, ...]:
        """The per-shard structures (read-only view for tests/benches)."""
        return tuple(self._shards)

    @property
    def executor(self):
        """The live executor (read-only view for tests/benches)."""
        return self._executor

    @property
    def process_pool(self):
        """The worker-process pool, or None outside process mode."""
        return self._process_pool

    def wrap_executor(self, wrap) -> None:
        """Replace the live executor with ``wrap(current_executor)``.

        The hook the chaos harness uses to interpose a
        :class:`~repro.engine.resilience.FaultInjector` around an
        already-running executor — in process mode the pool keeps its
        workers and shm attachments, the injector just sits in front of
        the fan-out.
        """
        self._executor = wrap(self._executor)

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

    def set_degradation(self, mode: str) -> str:
        """Swap the resilience policy's degradation mode at runtime.

        The serving front-end's load shedder flips ``strict`` →
        ``partial`` when admission pressure crosses its watermark and
        back when it subsides, so slow shards stop holding answers
        hostage exactly when capacity is scarce.  Returns the previous
        mode.  The swap happens between requests on the owner's thread,
        so an in-flight read finishes under the policy it started with
        and the next read sees the new mode.
        """
        if self.policy is None:
            raise ConfigurationError(
                "engine has no resilience policy to degrade"
            )
        from dataclasses import replace

        previous = self.policy.degradation
        if mode != previous:
            # replace() re-runs ResiliencePolicy.__post_init__, so an
            # unknown mode raises ConfigurationError here.
            self.policy = replace(self.policy, degradation=mode)
        return previous

    def resilience_info(self) -> dict | None:
        """Policy summary plus live per-shard breaker state (None when
        no policy is attached)."""
        if self.policy is None:
            return None
        breakers = [
            {
                "shard": index,
                "state": breaker.state,
                "failure_rate": breaker.failure_rate(),
            }
            for index, breaker in enumerate(self._breakers)
        ]
        return {
            "deadline_seconds": self.policy.deadline_seconds,
            "max_retries": self.policy.max_retries,
            "degradation": self.policy.degradation,
            "breaker_window": self.policy.breaker_window,
            "breakers": breakers,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the executor down; in process mode also stop the worker
        pool and unlink the shared-memory slabs (idempotent)."""
        self._executor.shutdown()
        if self._process_pool is not None and self._process_pool is not self._executor:
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
