"""Tests for cross-process telemetry: shared-memory worker metric
shards, delta harvesting, the SLO watchdog, and the unified export
surface.

The load-bearing properties:

* a worker shard and its harvester agree on every slot offset by
  construction (one pickled layout), so merged values are exact;
* harvesting is delta-based and crash-safe — harvesting twice adds
  nothing, a SIGKILLed worker's last-published values are never lost,
  and a respawned worker resuming the same slots is never
  double-counted;
* disabled observability stays allocation-free: NULL_OBS engines bind
  the shared null instrument and register no metric families.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine import ShardedEngine
from repro.exceptions import ConfigurationError
from repro.obs import ManualClock, MetricsRegistry, Observability, Tracer
from repro.obs import NULL_OBS
from repro.obs.export import export_unified, write_chrome_trace
from repro.obs.metrics import NULL_INSTRUMENT
from repro.obs.remote import (
    MetricsHarvester,
    RemoteMetricsLayout,
    WorkerMetricsShard,
    worker_metrics_layout,
)
from repro.obs.slo import ErrorBudgetSlo, LatencySlo, SloWatchdog
from repro.workloads import RangeQuery, read_write_stream

SHAPE = (18, 9)


def _replay(engine, events):
    for event in events:
        if isinstance(event, RangeQuery):
            engine.range_sum(event.low, event.high)
        else:
            engine.add(event.cell, event.delta)


def _counter_value(registry, name, **labels):
    family = registry.get(name)
    if family is None:
        return None
    for child_labels, child in family.samples():
        if all(child_labels.get(k) == v for k, v in labels.items()):
            return child.value
    return None


class TestLayout:
    def test_standard_layout_shape(self):
        layout = worker_metrics_layout()
        assert len(layout.entries) == 4
        kinds = [entry[0] for entry in layout.entries]
        assert kinds.count("histogram") == 2
        assert kinds.count("counter") == 2
        assert kinds.count("gauge") == 0
        # Offsets are dense: each entry starts where the previous ended.
        widths = [
            (len(entry[4]) + 3 if entry[0] == "histogram" else 1)
            for entry in layout.entries
        ]
        assert layout.slots == sum(widths)
        assert layout.offsets == tuple(
            sum(widths[:i]) for i in range(len(widths))
        )

    def test_pickle_roundtrip_preserves_offsets(self):
        layout = worker_metrics_layout()
        clone = pickle.loads(pickle.dumps(layout))
        assert clone.offsets == layout.offsets
        assert clone.slots == layout.slots
        assert clone.entries == layout.entries

    def test_locate_is_label_order_insensitive(self):
        layout = RemoteMetricsLayout(
            [("counter", "c_total", "help", (("a", "1"), ("b", "2")), None)]
        )
        assert layout.locate("c_total", {"b": "2", "a": "1"}) == 0
        with pytest.raises(ConfigurationError):
            layout.locate("c_total", {"a": "9"})

    def test_invalid_layouts_raise(self):
        with pytest.raises(ConfigurationError):
            RemoteMetricsLayout([])
        with pytest.raises(ConfigurationError):
            RemoteMetricsLayout([("timer", "t", "help", (), None)])
        with pytest.raises(ConfigurationError):
            RemoteMetricsLayout([("histogram", "h", "help", (), (2.0, 1.0))])
        with pytest.raises(ConfigurationError):
            RemoteMetricsLayout(
                [
                    ("counter", "c_total", "help", (), None),
                    ("counter", "c_total", "help", (), None),
                ]
            )


@pytest.fixture
def small_layout():
    return RemoteMetricsLayout(
        [
            ("counter", "ops_total", "ops", (("op", "read"),), None),
            ("gauge", "ready", "ready flag", (), None),
            ("histogram", "lat_seconds", "latency", (), (0.1, 1.0)),
        ]
    )


class TestShardAndHarvester:
    """In-process shard + harvester over real shared-memory segments."""

    def test_merge_under_worker_labels(self, small_layout):
        harvester = MetricsHarvester(small_layout, workers=2)
        registry = MetricsRegistry()
        try:
            shard0 = WorkerMetricsShard(*harvester.worker_telemetry(0))
            shard1 = WorkerMetricsShard(*harvester.worker_telemetry(1))
            shard0.counter("ops_total", op="read").inc(3)
            shard1.counter("ops_total", op="read").inc(5)
            shard0.gauge("ready").set(1.0)
            shard0.histogram("lat_seconds").observe(0.05)
            shard0.histogram("lat_seconds").observe(2.0)
            summary = harvester.harvest(registry)
            assert summary["workers"] == 2
            assert summary["torn_snapshots"] == 0
            assert summary["updates_published"] == 5
            assert _counter_value(registry, "ops_total", worker="0") == 3
            assert _counter_value(registry, "ops_total", worker="1") == 5
            hist = registry.get("lat_seconds").labels(worker="0")
            assert hist.count == 2
            assert hist.sum == pytest.approx(2.05)
            assert hist.counts == [1, 0, 1]  # <=0.1, <=1.0, +Inf
            shard0.close()
            shard1.close()
        finally:
            harvester.destroy()

    def test_harvest_twice_adds_nothing(self, small_layout):
        harvester = MetricsHarvester(small_layout, workers=1)
        registry = MetricsRegistry()
        try:
            shard = WorkerMetricsShard(*harvester.worker_telemetry(0))
            shard.counter("ops_total", op="read").inc(4)
            harvester.harvest(registry)
            harvester.harvest(registry)
            harvester.harvest(registry)
            assert _counter_value(registry, "ops_total", worker="0") == 4
            # New updates merge exactly once on the next harvest.
            shard.counter("ops_total", op="read").inc(2)
            harvester.harvest(registry)
            assert _counter_value(registry, "ops_total", worker="0") == 6
            shard.close()
        finally:
            harvester.destroy()

    def test_reattach_resumes_same_slots_without_double_count(
        self, small_layout
    ):
        """A respawned worker attaches to the same segment and keeps
        incrementing; delta merging never replays the old total."""
        harvester = MetricsHarvester(small_layout, workers=1)
        registry = MetricsRegistry()
        try:
            shard = WorkerMetricsShard(*harvester.worker_telemetry(0))
            shard.counter("ops_total", op="read").inc(7)
            shard.close()  # worker dies; values still mapped
            harvester.harvest(registry)
            assert _counter_value(registry, "ops_total", worker="0") == 7
            respawned = WorkerMetricsShard(*harvester.worker_telemetry(0))
            respawned.counter("ops_total", op="read").inc(1)
            harvester.harvest(registry)
            assert _counter_value(registry, "ops_total", worker="0") == 8
            respawned.close()
        finally:
            harvester.destroy()

    def test_torn_seqlock_is_accepted_and_counted(self, small_layout):
        """A worker SIGKILLed mid-update leaves ``seq`` odd forever; the
        harvester accepts the torn snapshot after bounded retries."""
        harvester = MetricsHarvester(small_layout, workers=1)
        registry = MetricsRegistry()
        try:
            shard = WorkerMetricsShard(*harvester.worker_telemetry(0))
            shard.counter("ops_total", op="read").inc(2)
            shard._begin()  # die mid-update: seq stays odd
            summary = harvester.harvest(registry)
            assert summary["torn_snapshots"] == 1
            assert harvester.torn_snapshots == 1
            assert _counter_value(registry, "ops_total", worker="0") == 2
            shard.close()
        finally:
            harvester.destroy()

    def test_destroy_is_idempotent(self, small_layout):
        harvester = MetricsHarvester(small_layout, workers=1)
        harvester.destroy()
        harvester.destroy()
        with pytest.raises(ConfigurationError):
            MetricsHarvester(small_layout, workers=0)

    def test_shard_handle_kind_mismatch_raises(self, small_layout):
        harvester = MetricsHarvester(small_layout, workers=1)
        try:
            shard = WorkerMetricsShard(*harvester.worker_telemetry(0))
            with pytest.raises(ConfigurationError):
                shard.gauge("ops_total", op="read")
            with pytest.raises(ConfigurationError):
                shard.counter("ops_total", op="read").inc(-1)
            shard.close()
        finally:
            harvester.destroy()


class TestDisabledObsStaysDark:
    def test_null_obs_engine_binds_null_instrument(self):
        engine = ShardedEngine(SHAPE, shards=2)
        try:
            assert engine.obs is NULL_OBS
            bound = [
                *engine._obs_request_seconds.values(),
                *engine._obs_cache_lookups.values(),
                *engine._obs_shard_read_seconds,
                *engine._obs_shard_epoch,
                engine._obs_degraded,
            ]
            assert all(handle is NULL_INSTRUMENT for handle in bound)
            # Nothing registered: the shared registry holds no
            # engine-specific families for a dark engine.
            assert NULL_OBS.metrics.get("repro_engine_request_seconds") is None
        finally:
            engine.close()

    def test_null_obs_process_pool_has_no_harvester(self):
        engine = ShardedEngine(SHAPE, shards=2, executor="process")
        try:
            assert engine.harvest_worker_metrics() is None
            info = engine.pool_info()
            assert info["telemetry"] is None
        finally:
            engine.close()

    def test_parent_only_mode_skips_worker_segments(self):
        obs = Observability(remote_worker_metrics=False)
        engine = ShardedEngine(
            SHAPE, shards=2, executor="process", obs=obs
        )
        try:
            _replay(engine, read_write_stream(SHAPE, 30, seed=3))
            engine.process_pool.flush()
            assert engine.harvest_worker_metrics() is None
            assert obs.metrics.get("repro_worker_ops_total") is None
        finally:
            engine.close()


class TestProcessHarvestAcceptance:
    """End-to-end: worker metrics cross the process boundary."""

    def test_harvest_surfaces_worker_families(self):
        obs = Observability()
        engine = ShardedEngine(
            SHAPE, shards=2, executor="process", obs=obs
        )
        try:
            assert engine.executor_kind == "process"
            _replay(engine, read_write_stream(SHAPE, 60, seed=5))
            engine.process_pool.flush()
            summary = engine.harvest_worker_metrics()
            assert summary is not None
            assert summary["updates_published"] > 0
            for name in (
                "repro_worker_gather_seconds",
                "repro_worker_apply_seconds",
                "repro_worker_ops_total",
            ):
                family = obs.metrics.get(name)
                assert family is not None, name
                workers = {labels["worker"] for labels, _ in family.samples()}
                assert workers, name
            prom = obs.metrics.render_prometheus()
            assert 'repro_worker_ops_total{op="apply",worker=' in prom
        finally:
            engine.close()

    def test_worker_churn_never_loses_or_double_counts(self):
        """SIGKILL mid-soak: ops published before the kill survive the
        corpse, and the respawned worker's counts stack on top."""
        obs = Observability()
        engine = ShardedEngine(
            SHAPE, shards=2, executor="process", obs=obs
        )
        try:
            pool = engine.process_pool
            _replay(engine, read_write_stream(SHAPE, 40, seed=7))
            pool.flush()
            engine.harvest_worker_metrics()
            before = _counter_value(
                obs.metrics, "repro_worker_ops_total", op="apply"
            )
            assert before is not None and before > 0
            # Idempotence under churn: nothing new -> nothing merged.
            engine.harvest_worker_metrics()
            assert (
                _counter_value(
                    obs.metrics, "repro_worker_ops_total", op="apply"
                )
                == before
            )
            # More traffic, then SIGKILL without harvesting first: the
            # segment outlives the corpse, so those ops are not lost.
            _replay(engine, read_write_stream(SHAPE, 40, seed=8))
            pool.flush()
            assert pool.kill_worker(0)
            engine.harvest_worker_metrics()
            after_kill = _counter_value(
                obs.metrics, "repro_worker_ops_total", op="apply"
            )
            assert after_kill > before
            # Respawn (next op revives the lane) and keep counting: the
            # worker resumes the same slots; totals only move forward.
            _replay(engine, read_write_stream(SHAPE, 40, seed=9))
            pool.flush()
            engine.harvest_worker_metrics()
            final = _counter_value(
                obs.metrics, "repro_worker_ops_total", op="apply"
            )
            assert final > after_kill
            info = pool.pool_info()
            assert info["restarts"] >= 1
            assert info["telemetry"]["harvests"] >= 3
        finally:
            engine.close()

    def test_slow_log_attributes_executor_and_workers(self):
        obs = Observability(slow_query_seconds=0.0)
        engine = ShardedEngine(
            SHAPE, shards=2, executor="process", obs=obs
        )
        try:
            engine.range_sum((0, 0), (17, 8))
            records = obs.slow_log.slowest(4)
            assert records
            record = records[0]
            assert record.attributes["executor"] == "process"
            assert record.workers
        finally:
            engine.close()


class TestSloWatchdog:
    def test_vacuous_pass_with_no_data(self):
        obs = Observability()
        watchdog = SloWatchdog(obs)
        statuses = watchdog.check()
        assert watchdog.healthy
        assert all(status.ok for status in statuses)
        doc = watchdog.healthz()
        assert doc["status"] == "ok"
        assert doc["checks_run"] == 1

    def test_latency_violation_flips_health(self):
        obs = Observability()
        family = obs.metrics.histogram(
            "repro_engine_request_seconds", "req", labels=("op",)
        )
        family.labels(op="range_sum").observe(5.0)
        watchdog = SloWatchdog(
            obs,
            rules=[
                LatencySlo(
                    "p99", "repro_engine_request_seconds", 0.99, 0.001
                )
            ],
        )
        watchdog.check()
        assert not watchdog.healthy
        assert watchdog.healthz()["status"] == "degraded"
        assert "FAIL" in watchdog.render()

    def test_error_budget_and_harvest_hook(self):
        obs = Observability()
        calls = []
        errors = obs.metrics.counter("errs_total", "errors")
        total = obs.metrics.histogram("reqs_seconds", "requests")
        for _ in range(10):
            total.observe(0.001)
        errors.inc(5)
        watchdog = SloWatchdog(
            obs,
            rules=[
                ErrorBudgetSlo("budget", "errs_total", "reqs_seconds", 0.01)
            ],
            harvest=lambda: calls.append(1),
        )
        watchdog.check()
        assert calls == [1]
        assert not watchdog.healthy
        with pytest.raises(ConfigurationError):
            ErrorBudgetSlo("bad", "e", "t", 1.5)
        with pytest.raises(ConfigurationError):
            LatencySlo("bad", "m", 1.5, 0.1)


class TestUnifiedExport:
    def test_export_unified_snapshot(self, tmp_path):
        obs = Observability()
        engine = ShardedEngine(
            SHAPE, shards=2, executor="process", obs=obs
        )
        try:
            _replay(engine, read_write_stream(SHAPE, 40, seed=11))
            engine.process_pool.flush()
            watchdog = SloWatchdog(obs, harvest=engine.harvest_worker_metrics)
            doc = export_unified(obs, engine=engine, slo=watchdog)
            assert "repro_worker_ops_total" in doc["prometheus"]
            names = {family["name"] for family in doc["metrics"]}
            assert "repro_engine_request_seconds" in names
            assert doc["chrome_trace"]["traceEvents"]
            assert doc["harvest"]["workers"] == engine.pool_info()["workers"]
            assert doc["pool"]["alive"] >= 1
            assert doc["slo"]["status"] in ("ok", "degraded")
            assert watchdog.checks == 1
        finally:
            engine.close()

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        import json

        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.advance(0.5)
            with tracer.span("inner", worker=0):
                clock.advance(0.1)
        path = tmp_path / "trace.json"
        written = write_chrome_trace(str(path), tracer.finished_roots())
        assert written == 2
        doc = json.loads(path.read_text())
        names = {
            event["name"]
            for event in doc["traceEvents"]
            if event["ph"] == "X"
        }
        assert names == {"outer", "inner"}
        durations = [
            event["dur"]
            for event in doc["traceEvents"]
            if event["ph"] == "X"
        ]
        assert all(dur > 0 for dur in durations)


class TestCliSurface:
    def test_top_once_exits_healthy(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "top",
                    "--shape", "16", "16",
                    "--shards", "2",
                    "--events", "30",
                    "--executor", "process",
                    "--once",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "slo: HEALTHY" in out
        assert "worker" in out
        assert " revalidations" in out  # on the cache line

    def test_metrics_cli_shows_worker_families(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "metrics",
                    "--shape", "16", "16",
                    "--shards", "2",
                    "--events", "30",
                    "--executor", "process",
                    "--format", "prom",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "repro_worker_gather_seconds" in out
        assert "repro_worker_apply_seconds" in out
        assert "repro_worker_ops_total" in out
