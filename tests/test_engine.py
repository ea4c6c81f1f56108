"""Tests for the sharded parallel execution engine.

The load-bearing property: a K-sharded engine — any K, including counts
that leave an uneven last shard — is cell-for-cell indistinguishable
from the unsharded structure it wraps, under any interleaving of
queries and updates, with or without the result cache and the worker
pool in the loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    EpochLruCache,
    MISS,
    SerialExecutor,
    ShardedEngine,
    ShardPlan,
)
from repro.exceptions import ConfigurationError
from repro.methods import build_method
from repro.workloads import (
    PointUpdate,
    RangeQuery,
    clustered,
    read_write_stream,
)


class TestShardPlan:
    def test_even_split(self):
        plan = ShardPlan((8, 5), shards=4)
        assert len(plan) == 4
        assert [(s.start, s.stop) for s in plan.spans] == [
            (0, 2),
            (2, 4),
            (4, 6),
            (6, 8),
        ]

    def test_uneven_last_shard(self):
        plan = ShardPlan((10, 3), shards=4)
        lengths = [span.length for span in plan.spans]
        assert sum(lengths) == 10
        assert all(length >= 1 for length in lengths)
        # floor(i*n/K) boundaries: spans differ by at most one row.
        assert max(lengths) - min(lengths) <= 1

    def test_owner_routing(self):
        plan = ShardPlan((10, 3), shards=3)
        for row in range(10):
            index = plan.owner((row, 0))
            span = plan.spans[index]
            assert span.start <= row < span.stop

    def test_decompose_covers_range_exactly(self):
        plan = ShardPlan((10, 4), shards=3)
        parts = list(plan.decompose((1, 0), (8, 3)))
        # Local sub-ranges translate back to a disjoint cover of [1, 8].
        covered = []
        for index, local_low, local_high in parts:
            span = plan.spans[index]
            covered.extend(
                range(span.start + local_low[0], span.start + local_high[0] + 1)
            )
            assert local_low[1:] == (0,)
            assert local_high[1:] == (3,)
        assert covered == list(range(1, 9))

    def test_decompose_single_shard_range(self):
        plan = ShardPlan((12, 2), shards=4)
        parts = list(plan.decompose((0, 0), (1, 1)))
        assert len(parts) == 1
        assert parts[0][0] == 0

    def test_invalid_shard_counts(self):
        with pytest.raises(ConfigurationError):
            ShardPlan((8, 8), shards=0)
        with pytest.raises(ConfigurationError):
            ShardPlan((4, 4), shards=5)


class TestEpochLruCache:
    def test_hit_and_stale_invalidation(self):
        cache = EpochLruCache(4)
        epochs = [0, 0]
        cache.put("a", 7, (0,), epochs)
        assert cache.get("a", epochs) == 7
        epochs[0] += 1  # a write to shard 0 invalidates the entry
        assert cache.get("a", epochs) is MISS
        assert "a" not in cache
        assert cache.invalidations == 1

    def test_independent_shard_write_keeps_entry(self):
        cache = EpochLruCache(4)
        epochs = [0, 0]
        cache.put("a", 7, (0,), epochs)
        epochs[1] += 1  # other shard: entry must stay warm
        assert cache.get("a", epochs) == 7

    def test_lru_eviction(self):
        cache = EpochLruCache(2)
        epochs = [0]
        cache.put("a", 1, (0,), epochs)
        cache.put("b", 2, (0,), epochs)
        assert cache.get("a", epochs) == 1  # refresh a
        cache.put("c", 3, (0,), epochs)  # evicts b
        assert cache.get("b", epochs) is MISS
        assert cache.get("a", epochs) == 1
        assert cache.evictions == 1

    def test_zero_capacity_disables(self):
        cache = EpochLruCache(0)
        cache.put("a", 1, (0,), [0])
        assert cache.get("a", [0]) is MISS
        assert len(cache) == 0

    def test_get_refreshes_recency_order(self):
        cache = EpochLruCache(3)
        epochs = [0]
        for key, value in (("a", 1), ("b", 2), ("c", 3)):
            cache.put(key, value, (0,), epochs)
        # touch the oldest two so "c" becomes the LRU victim
        assert cache.get("a", epochs) == 1
        assert cache.get("b", epochs) == 2
        cache.put("d", 4, (0,), epochs)
        assert cache.get("c", epochs) is MISS
        assert cache.get("a", epochs) == 1
        assert cache.get("b", epochs) == 2
        assert cache.get("d", epochs) == 4

    def test_contains_does_not_perturb_recency(self):
        cache = EpochLruCache(2)
        epochs = [0]
        cache.put("a", 1, (0,), epochs)
        cache.put("b", 2, (0,), epochs)
        # membership probes must not refresh "a" — it stays the LRU victim
        assert "a" in cache
        assert "a" in cache
        cache.put("c", 3, (0,), epochs)
        assert cache.get("a", epochs) is MISS
        assert cache.get("b", epochs) == 2

    def test_stale_entries_evicted_before_live_ones(self):
        cache = EpochLruCache(2)
        epochs = [0, 0]
        cache.put("live", 1, (0,), epochs)     # depends on shard 0
        cache.put("stale", 2, (1,), epochs)    # depends on shard 1
        epochs[1] += 1                         # "stale" is now invalid
        # at capacity: the eviction scan must pick the stale entry even
        # though "live" is older in LRU order
        cache.put("new", 3, (0,), epochs)
        assert cache.get("live", epochs) == 1
        assert cache.get("new", epochs) == 3
        assert cache.get("stale", epochs) is MISS
        assert cache.stale_evictions == 1
        assert cache.evictions == 1

    def test_plain_lru_eviction_when_nothing_is_stale(self):
        cache = EpochLruCache(2)
        epochs = [0]
        cache.put("a", 1, (0,), epochs)
        cache.put("b", 2, (0,), epochs)
        cache.put("c", 3, (0,), epochs)
        assert cache.get("a", epochs) is MISS
        assert cache.stale_evictions == 0
        assert cache.evictions == 1


class TestExecutors:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_default_executor_is_serial(self, shards):
        for workers in (None, 0, 1):
            with ShardedEngine((8, 8), shards=shards, workers=workers) as engine:
                assert engine.executor_kind == "serial"
                assert isinstance(engine.executor, SerialExecutor)

    def test_thread_executor_kind_is_gone(self):
        with pytest.raises(ConfigurationError, match="'serial' or 'process'"):
            ShardedEngine((8, 8), executor="thread")

    @pytest.mark.parametrize("executor", [None, "serial", SerialExecutor()])
    def test_workers_need_the_process_executor(self, executor):
        """``workers`` sizes the worker-process pool and nothing else:
        asking for several without it is refused, not reinterpreted."""
        with pytest.raises(ConfigurationError, match='executor="process"'):
            ShardedEngine((8, 8), workers=4, executor=executor)

    def test_map_matches_builtin(self):
        items = list(range(10))
        assert SerialExecutor().map(lambda x: x * x, items) == [
            x * x for x in items
        ]


def _replay(target, events):
    reads = []
    for event in events:
        if isinstance(event, RangeQuery):
            reads.append(int(target.range_sum(event.low, event.high)))
        else:
            target.add(event.cell, event.delta)
    return reads


class TestEngineEquivalence:
    SHAPE = (18, 9)

    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_interleaved_stream_matches_unsharded(self, shards):
        """K-sharded == unsharded under mixed queries/updates (K=7 leaves
        an uneven last shard on an 18-row cube)."""
        data = clustered(self.SHAPE, seed=11)
        events = read_write_stream(
            self.SHAPE, 160, mix=0.7, locality="zipf", seed=12
        )
        baseline = build_method("ddc", data)
        with ShardedEngine.from_array(data, shards=shards) as engine:
            assert _replay(engine, events) == _replay(baseline, events)
            assert np.array_equal(engine.to_dense(), baseline.to_dense())

    @pytest.mark.parametrize("method", ["naive", "fenwick", "basic-ddc"])
    def test_any_registered_method_as_shard(self, method):
        data = clustered(self.SHAPE, seed=13)
        events = read_write_stream(
            self.SHAPE, 80, mix=0.6, locality="uniform", seed=14
        )
        baseline = build_method(method, data)
        with ShardedEngine.from_array(data, shards=3, method=method) as engine:
            assert _replay(engine, events) == _replay(baseline, events)

    def test_process_pool_matches_sequential(self):
        data = clustered(self.SHAPE, seed=15)
        events = read_write_stream(
            self.SHAPE, 120, mix=0.8, locality="zipf", seed=16
        )
        with ShardedEngine.from_array(data, shards=4) as serial:
            expected = _replay(serial, events)
        with ShardedEngine.from_array(
            data, shards=4, workers=2, executor="process"
        ) as pooled:
            assert _replay(pooled, events) == expected

    def test_batch_api_matches_scalar(self):
        data = clustered(self.SHAPE, seed=17)
        queries = [((1, 0), (16, 8)), ((0, 0), (3, 3)), ((5, 2), (17, 7))]
        cells = [(4, 4), (17, 8), (0, 0)]
        baseline = build_method("ddc", data)
        with ShardedEngine.from_array(data, shards=4) as engine:
            assert [int(v) for v in engine.range_sum_many(queries)] == [
                int(v) for v in baseline.range_sum_many(queries)
            ]
            assert [int(v) for v in engine.prefix_sum_many(cells)] == [
                int(v) for v in baseline.prefix_sum_many(cells)
            ]
            updates = [((2, 2), 5), ((9, 1), -3), ((17, 8), 11), ((2, 2), 1)]
            engine.add_many(updates)
            baseline.add_many(updates)
            assert np.array_equal(engine.to_dense(), baseline.to_dense())


class TestEngineCache:
    SHAPE = (16, 8)

    def test_query_update_query_reflects_write(self):
        """The acceptance sequence: cached query -> overlapping write ->
        re-query must see the new value, never the stale cache entry."""
        data = clustered(self.SHAPE, seed=21)
        with ShardedEngine.from_array(data, shards=4) as engine:
            low, high = (2, 1), (13, 6)
            first = int(engine.range_sum(low, high))
            assert int(engine.range_sum(low, high)) == first  # cache hit
            assert engine.stats.cache_hits == 1
            engine.add((5, 3), 42)  # bumps the owning shard's epoch
            assert int(engine.range_sum(low, high)) == first + 42
            assert engine.cache_info()["invalidations"] >= 1

    def test_write_to_other_shard_keeps_entry_warm(self):
        data = clustered(self.SHAPE, seed=22)
        with ShardedEngine.from_array(data, shards=4) as engine:
            # Range entirely inside shard 0 (rows 0..3).
            value = int(engine.range_sum((0, 0), (3, 7)))
            engine.add((15, 0), 9)  # last shard; shard 0's epoch untouched
            hits_before = engine.stats.cache_hits
            assert int(engine.range_sum((0, 0), (3, 7))) == value
            assert engine.stats.cache_hits == hits_before + 1

    def test_counters_and_hit_rate(self):
        data = clustered(self.SHAPE, seed=23)
        with ShardedEngine.from_array(data, shards=2) as engine:
            engine.reset_stats()
            engine.range_sum((0, 0), (15, 7))
            engine.range_sum((0, 0), (15, 7))
            engine.range_sum((1, 1), (2, 2))
            assert engine.stats.cache_misses == 2
            assert engine.stats.cache_hits == 1
            assert engine.stats.cache_hit_rate == pytest.approx(1 / 3)
            info = engine.cache_info()
            assert info["hits"] == 1 and info["misses"] == 2
            assert info["size"] == 2
            assert info["stale_evictions"] == 0

    def test_cache_disabled_still_correct(self):
        data = clustered(self.SHAPE, seed=24)
        baseline = build_method("ddc", data)
        with ShardedEngine.from_array(data, shards=3, cache_size=0) as engine:
            events = read_write_stream(
                self.SHAPE, 60, mix=0.8, locality="zipf", seed=25
            )
            assert _replay(engine, events) == _replay(baseline, events)
            assert engine.stats.cache_hits == 0

    def test_clear_cache(self):
        data = clustered(self.SHAPE, seed=26)
        with ShardedEngine.from_array(data, shards=2) as engine:
            engine.range_sum((0, 0), (7, 7))
            assert engine.cache_info()["size"] == 1
            engine.clear_cache()
            assert engine.cache_info()["size"] == 0


class TestExactInvalidation:
    """A write stales only the cached ranges that contain its cell."""

    BOX = ((2, 1), (5, 6))  # one shard's entry in the cache-level tests

    def _cached(self, capacity=8):
        cache = EpochLruCache(capacity)
        epochs = [0, 0]
        cache.put(self.BOX, 7, (0,), epochs)
        return cache, epochs

    @staticmethod
    def _write(cache, epochs, shard, cell):
        epochs[shard] += 1
        cache.log_cell(shard, epochs[shard], cell)

    @pytest.mark.parametrize("cell", [(2, 1), (5, 6), (2, 6), (5, 1)])
    def test_a_write_at_a_corner_invalidates(self, cell):
        cache, epochs = self._cached()
        self._write(cache, epochs, 0, cell)
        assert cache.get(self.BOX, epochs) is MISS
        assert cache.invalidations == 1 and cache.revalidations == 0

    @pytest.mark.parametrize("cell", [(1, 3), (6, 3), (3, 0), (3, 7)])
    def test_a_write_one_cell_outside_a_face_keeps_the_entry(self, cell):
        cache, epochs = self._cached()
        self._write(cache, epochs, 0, cell)
        assert cache.get(self.BOX, epochs) == 7
        assert cache.revalidations == 1 and cache.invalidations == 0
        # Re-stamped: the next lookup is a plain hit.
        assert cache.get(self.BOX, epochs) == 7
        assert cache.revalidations == 1

    def test_an_epoch_bump_with_no_logged_cells_invalidates(self):
        cache, epochs = self._cached()
        epochs[0] += 1  # e.g. a bulk load
        assert cache.get(self.BOX, epochs) is MISS
        assert cache.invalidations == 1

    def test_an_unlogged_bump_between_logged_writes_invalidates(self):
        cache, epochs = self._cached()
        self._write(cache, epochs, 0, (9, 9))
        epochs[0] += 1  # a gap in the log
        self._write(cache, epochs, 0, (9, 9))
        assert cache.get(self.BOX, epochs) is MISS
        # The log restarted at the gap: a later stamp checks again.
        cache.put(self.BOX, 8, (0,), epochs)
        self._write(cache, epochs, 0, (9, 9))
        assert cache.get(self.BOX, epochs) == 8

    def test_a_stamp_older_than_the_log_window_invalidates(self):
        cache, epochs = self._cached(capacity=4)
        for _ in range(5):  # the fifth cell trims the oldest records
            self._write(cache, epochs, 0, (9, 9))
        assert cache.get(self.BOX, epochs) is MISS
        assert cache.invalidations == 1

    def test_a_batch_is_checked_cell_by_cell(self):
        cache, epochs = self._cached()
        epochs[0] += 1
        cache.log_cells(0, epochs[0], [(0, 0), (9, 9), (6, 6)])
        assert cache.get(self.BOX, epochs) == 7
        epochs[0] += 1
        cache.log_cells(0, epochs[0], [(0, 0), (4, 4)])
        assert cache.get(self.BOX, epochs) is MISS

    def test_the_log_is_bounded_in_cells(self):
        cache = EpochLruCache(8)
        rng = np.random.default_rng(3)
        epoch = 0
        for _ in range(200):
            epoch += 1
            if rng.random() < 0.5:
                cache.log_cell(0, epoch, (1, 1))
            else:
                cache.log_cells(0, epoch, [(1, 1)] * int(rng.integers(1, 12)))
            log = cache._logs[0]
            cells = sum(
                len(record) if type(record) is list else 1
                for record in log.records
            )
            assert cells <= 8
            assert log.base + len(log.records) == epoch

    def test_a_behind_stamp_is_the_eviction_victim_even_if_it_would_revalidate(
        self,
    ):
        cache = EpochLruCache(2)
        epochs = [0, 0]
        live, behind = ((0, 0), (1, 1)), ((8, 0), (9, 1))
        cache.put(live, 1, (0,), epochs)
        cache.put(behind, 2, (1,), epochs)
        self._write(cache, epochs, 1, (9, 9))  # outside ``behind``
        cache.put(((0, 2), (1, 3)), 3, (0,), epochs)
        assert behind not in cache and live in cache
        assert cache.stale_evictions == 1

    def test_a_range_over_two_shards_survives_a_write_outside_it(self):
        data = clustered((16, 8), seed=27)
        with ShardedEngine.from_array(data, shards=4) as engine:
            low, high = (2, 1), (5, 3)  # rows 0-3 are shard 0, 4-7 shard 1
            value = int(engine.range_sum(low, high))
            engine.add((6, 7), 5)  # shard 1, outside the range
            hits = engine.stats.cache_hits
            assert int(engine.range_sum(low, high)) == value
            assert engine.stats.cache_hits == hits + 1
            assert engine.cache_info()["revalidations"] == 1
            engine.add((5, 3), 5)  # shard 1, the range's high corner
            assert int(engine.range_sum(low, high)) == value + 5
            assert engine.cache_info()["invalidations"] == 1

    def test_add_many_stales_only_the_ranges_it_touches(self):
        data = clustered((16, 8), seed=28)
        dense = data.astype(np.int64).copy()
        boxes = [((0, 0), (3, 3)), ((5, 2), (10, 5)), ((12, 0), (15, 5))]
        with ShardedEngine.from_array(data, shards=4) as engine:
            engine.range_sum_many(boxes)
            # Shards 0, 2 and 3; only (9, 4) lies inside a cached range.
            updates = [((1, 6), 3), ((9, 4), 4), ((11, 0), 2), ((14, 7), 1)]
            engine.add_many(updates)
            for cell, delta in updates:
                dense[cell] += delta
            engine.reset_stats()
            values = engine.range_sum_many(boxes)
            assert [int(v) for v in values] == [
                int(dense[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1].sum())
                for lo, hi in boxes
            ]
            assert engine.stats.cache_hits == 2
            info = engine.cache_info()
            assert info["invalidations"] == 1 and info["revalidations"] == 2


class TestEngineIntrospection:
    def test_shard_report_and_aggregate_stats(self):
        data = clustered((12, 6), seed=31)
        with ShardedEngine.from_array(data, shards=3) as engine:
            engine.reset_stats()
            engine.range_sum((0, 0), (11, 5))
            report = engine.shard_report()
            assert len(report) == 3
            assert all(row["span"][1] > row["span"][0] for row in report)
            merged = engine.aggregate_stats()
            assert merged.cache_misses == 1
            before = list(engine.epochs)
            engine.add((0, 0), 1)
            after = list(engine.epochs)
            # Only the owning shard's epoch moves, and by exactly one.
            assert after[0] == before[0] + 1
            assert after[1:] == before[1:]

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            ShardedEngine((8, 8), shards=0)
        with pytest.raises(ConfigurationError):
            ShardedEngine((4, 4), shards=9)

    def test_total_and_memory(self):
        data = clustered((10, 5), seed=32)
        baseline = build_method("ddc", data)
        with ShardedEngine.from_array(data, shards=4) as engine:
            assert int(engine.total()) == int(baseline.total())
            assert engine.memory_cells() > 0


class TestScalarMissUnderPolicy:
    """A one-range miss under a resilience policy reads its shards
    directly, and takes the guarded fan-out only when it must."""

    SHAPE = (16, 8)

    def _engine(self, executor=None, **policy):
        from repro.engine import FaultInjector, ResiliencePolicy
        from repro.obs import ManualClock, Observability

        clock = ManualClock()
        if executor == "injector":
            executor = FaultInjector(SerialExecutor(), clock=clock)
        data = clustered(self.SHAPE, seed=41)
        engine = ShardedEngine.from_array(
            data,
            shards=4,
            obs=Observability(clock=clock),
            resilience=ResiliencePolicy(**policy),
            executor=executor,
        )
        return engine, data

    @staticmethod
    def _count_fanouts(monkeypatch, engine):
        calls = []
        fanout = engine._resilient_fanout

        def spy(*args, **kwargs):
            calls.append(args)
            return fanout(*args, **kwargs)

        monkeypatch.setattr(engine, "_resilient_fanout", spy)
        return calls

    @staticmethod
    def _raise_once(shard):
        from repro.exceptions import InjectedFaultError

        read = shard.range_sum
        raised = []

        def flaky(low, high):
            if not raised:
                raised.append(True)
                raise InjectedFaultError("shard double: first read fails")
            return read(low, high)

        shard.range_sum = flaky

    def test_a_healthy_miss_skips_the_guarded_fanout(self, monkeypatch):
        engine, data = self._engine()
        calls = self._count_fanouts(monkeypatch, engine)
        assert engine.range_sum((1, 0), (14, 7)) == int(data[1:15].sum())
        assert calls == []
        # Every touched shard's success is in its breaker window.
        assert [breaker._outcomes for breaker in engine._breakers] == [[False]] * 4
        engine.close()

    @pytest.mark.parametrize(
        "reason", ["deadline", "executor", "breaker"]
    )
    def test_a_miss_takes_the_guarded_fanout_when_it_must(self, monkeypatch, reason):
        engine, data = self._engine(
            executor="injector" if reason == "executor" else None,
            deadline_seconds=1.0 if reason == "deadline" else None,
        )
        if reason == "breaker":
            engine._breakers[2].state = "half-open"
        calls = self._count_fanouts(monkeypatch, engine)
        assert engine.range_sum((1, 0), (14, 7)) == int(data[1:15].sum())
        assert len(calls) == 1
        engine.close()

    def test_a_raising_shard_records_what_the_guarded_fanout_records(
        self, monkeypatch
    ):
        direct, data = self._engine(max_retries=2)
        guarded, _ = self._engine(executor="injector", max_retries=2)
        answers = []
        for engine in (direct, guarded):
            self._raise_once(engine._shards[1])
            calls = self._count_fanouts(monkeypatch, engine)
            answers.append(engine.range_sum((1, 0), (10, 7)))
            assert len(calls) == 1
        assert answers == [int(data[1:11].sum())] * 2
        for engine in (direct, guarded):
            retries = engine.obs.metrics.get("repro_engine_retries_total")
            assert retries.labels(shard="1").value == 1
            assert [breaker._outcomes for breaker in engine._breakers] == [
                [False], [True, False], [False], [],
            ]
            engine.close()
