"""Tests for repro.obs: clock, metrics, tracing, slow-query capture.

The deterministic half injects :class:`ManualClock` so durations and
histogram contents are exact; the acceptance half drives a real
:class:`ShardedEngine` workload and checks the full contract — a
Prometheus exposition with per-shard latency histograms and cache
hit/stale counters, a JSON export carrying the same values, and a
slow-query record whose span tree is one engine root with one shard
child per shard touched, carrying that shard's OpCounter delta.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ResiliencePolicy, ShardedEngine
from repro.exceptions import ConfigurationError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_OBS,
    NULL_SPAN,
    ManualClock,
    MetricsRegistry,
    NullRegistry,
    Observability,
    SlowQueryLog,
    Tracer,
    render_span_tree,
    sorted_by_duration,
)
from repro.counters import OpCounter



class TestManualClock:
    def test_advance(self):
        clock = ManualClock(start=5.0)
        assert clock.now() == 5.0
        clock.advance(2.5)
        assert clock.now() == 7.5

    def test_cannot_go_backwards(self):
        with pytest.raises(ConfigurationError):
            ManualClock().advance(-1.0)


class TestCounterAndGauge:
    def test_counter_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "Events.")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4.0

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("events_total", "Events.")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("level", "Level.")
        gauge.set(10)
        assert gauge.value == 10.0
        child = gauge.labels()
        child.inc(2)
        child.dec(5)
        assert gauge.value == 7.0

    def test_labelled_children_are_cached(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", "Hits.", labels=("shard",))
        a = counter.labels(shard="0")
        assert counter.labels(shard="0") is a
        assert counter.labels(shard="1") is not a

    def test_wrong_labels_raise(self):
        counter = MetricsRegistry().counter("hits", "Hits.", labels=("shard",))
        with pytest.raises(ConfigurationError):
            counter.labels(worker="0")
        with pytest.raises(ConfigurationError):
            counter.inc()  # label-less use of a labelled family

    def test_reregistration_is_idempotent_but_typed(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", "Hits.", labels=("shard",))
        assert registry.counter("hits", "ignored", labels=("shard",)) is counter
        with pytest.raises(ConfigurationError):
            registry.gauge("hits", "Hits.", labels=("shard",))
        with pytest.raises(ConfigurationError):
            registry.counter("hits", "Hits.", labels=("other",))

    def test_invalid_names_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("0bad", "Bad.")
        with pytest.raises(ConfigurationError):
            registry.counter("ok_total", "Bad label.", labels=("0bad",))


class TestHistogram:
    def test_bucketing_and_counts(self):
        histogram = MetricsRegistry().histogram(
            "lat", "Latency.", buckets=(1.0, 2.0, 4.0)
        )
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            histogram.observe(value)
        child = histogram.labels()
        assert child.count == 5
        assert child.sum == pytest.approx(106.0)
        # bucket counts: <=1: {0.5, 1.0}, <=2: {1.5}, <=4: {3.0}, +Inf: {100}
        assert child.counts == [2, 1, 1, 1]
        assert child.cumulative() == [2, 3, 4, 5]

    def test_quantiles_interpolate(self):
        histogram = MetricsRegistry().histogram(
            "lat", "Latency.", buckets=(1.0, 2.0)
        )
        for _ in range(10):
            histogram.observe(0.5)
        # all mass in the first bucket: p50 interpolates to half its width
        assert histogram.quantile(0.5) == pytest.approx(0.5)
        assert histogram.quantile(1.0) == pytest.approx(1.0)

    def test_quantile_empty_and_clamp(self):
        histogram = MetricsRegistry().histogram(
            "lat", "Latency.", buckets=(1.0, 2.0)
        )
        assert histogram.quantile(0.99) == 0.0
        histogram.observe(50.0)  # lands in +Inf
        assert histogram.quantile(0.99) == 2.0  # clamps to top finite bound
        with pytest.raises(ConfigurationError):
            histogram.quantile(1.5)

    def test_default_ladder_is_log_scale(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-6)
        ratios = [
            b / a
            for a, b in zip(DEFAULT_LATENCY_BUCKETS, DEFAULT_LATENCY_BUCKETS[1:])
        ]
        assert all(r == pytest.approx(4.0) for r in ratios)

    def test_bad_buckets_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("lat", "Latency.", buckets=())
        with pytest.raises(ConfigurationError):
            registry.histogram("lat", "Latency.", buckets=(2.0, 1.0))


def _histogram_samples_from_prometheus(text: str, name: str):
    """Parse one histogram family out of the text exposition.

    Returns ``{labels-frozenset: {"buckets": {le: count}, "sum": float,
    "count": int}}`` — just enough structure to cross-check the JSON
    export sample for sample.
    """
    import re

    samples: dict = {}
    pattern = re.compile(
        rf"^{name}_(bucket|sum|count)(?:{{(.*)}})? (\S+)$", re.M
    )
    for kind, raw_labels, raw_value in pattern.findall(text):
        labels = {}
        if raw_labels:
            for part in re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', raw_labels):
                labels[part[0]] = part[1]
        le = labels.pop("le", None)
        key = frozenset(labels.items())
        entry = samples.setdefault(key, {"buckets": {}, "sum": None, "count": None})
        if kind == "bucket":
            entry["buckets"][le] = int(raw_value)
        elif kind == "sum":
            entry["sum"] = float(raw_value)
        else:
            entry["count"] = int(raw_value)
    return samples


class TestExposition:
    def _populated_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        hits = registry.counter("cache_hits_total", "Hits.", labels=("result",))
        hits.labels(result="hit").inc(3)
        hits.labels(result="stale").inc()
        registry.gauge("entries", "Entries.").set(7)
        lat = registry.histogram("lat_seconds", "Latency.", buckets=(0.001, 0.01))
        for value in (0.0005, 0.002, 5.0):
            lat.observe(value)
        return registry

    def test_prometheus_text_format(self):
        text = self._populated_registry().render_prometheus()
        assert "# HELP cache_hits_total Hits.\n" in text
        assert "# TYPE cache_hits_total counter\n" in text
        assert 'cache_hits_total{result="hit"} 3\n' in text
        assert 'cache_hits_total{result="stale"} 1\n' in text
        assert "entries 7\n" in text
        assert 'lat_seconds_bucket{le="0.001"} 1\n' in text
        assert 'lat_seconds_bucket{le="0.01"} 2\n' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3\n' in text
        assert "lat_seconds_count 3\n" in text

    def test_json_matches_prometheus(self):
        registry = self._populated_registry()
        text = registry.render_prometheus()
        doc = registry.to_json()
        by_name = {family["name"]: family for family in doc["metrics"]}

        hits = {
            sample["labels"]["result"]: sample["value"]
            for sample in by_name["cache_hits_total"]["samples"]
        }
        assert hits == {"hit": 3.0, "stale": 1.0}
        assert by_name["entries"]["samples"][0]["value"] == 7.0

        prom = _histogram_samples_from_prometheus(text, "lat_seconds")
        (json_sample,) = by_name["lat_seconds"]["samples"]
        (prom_sample,) = prom.values()
        assert {
            bucket["le"]: bucket["count"] for bucket in json_sample["buckets"]
        } == prom_sample["buckets"]
        assert json_sample["count"] == prom_sample["count"]
        assert json_sample["sum"] == pytest.approx(prom_sample["sum"])

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd", "Odd.", labels=("tag",)).labels(
            tag='a"b\\c\nd'
        ).inc()
        text = registry.render_prometheus()
        assert 'odd{tag="a\\"b\\\\c\\nd"} 1' in text

    def test_null_registry(self):
        registry = NullRegistry()
        instrument = registry.counter("x", "X.")
        assert instrument.labels(anything="goes") is instrument
        instrument.inc()
        instrument.observe(1.0)
        instrument.set(2.0)
        assert instrument.value == 0.0
        assert registry.render_prometheus() == ""
        assert registry.to_json() == {"metrics": []}


class TestTracer:
    def test_nesting_and_exact_durations(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer", kind="root") as outer:
            clock.advance(1.0)
            with tracer.span("inner") as inner:
                clock.advance(0.25)
            clock.advance(1.0)
        assert outer.duration == pytest.approx(2.25)
        assert inner.duration == pytest.approx(0.25)
        assert outer.children == [inner]
        assert outer.attributes == {"kind": "root"}
        roots = tracer.finished_roots()
        assert roots == [outer]
        assert list(outer.walk()) == [outer, inner]

    def test_current_tracks_innermost(self):
        tracer = Tracer(clock=ManualClock())
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_explicit_parent_overrides_the_stack_top(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("request") as request:
            with tracer.span("decompose") as decompose:
                # Without parent= this would nest under ``decompose``.
                with tracer.span("shard", parent=request, shard=1):
                    pass
        assert [child.name for child in request.children] == [
            "decompose", "shard",
        ]
        assert decompose.children == []
        assert tracer.finished_roots() == [request]

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(clock=ManualClock(), capacity=2)
        for index in range(3):
            with tracer.span(f"root{index}"):
                pass
        assert [span.name for span in tracer.finished_roots()] == [
            "root1",
            "root2",
        ]
        tracer.clear()
        assert tracer.finished_roots() == []

    def test_head_sampling_suppresses_whole_subtrees(self):
        tracer = Tracer(clock=ManualClock(), sample_every=2)
        for index in range(4):
            with tracer.span(f"root{index}") as root:
                with tracer.span("child"):
                    pass
            if index % 2 == 0:
                assert root is not NULL_SPAN
            else:
                assert root is NULL_SPAN
        names = [span.name for span in tracer.finished_roots()]
        assert names == ["root0", "root2"]
        for span in tracer.finished_roots():
            assert [child.name for child in span.children] == ["child"]

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            Tracer(capacity=0)
        with pytest.raises(ConfigurationError):
            Tracer(sample_every=0)

    def test_render_and_sort(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("fast"):
            clock.advance(10e-6)
        with tracer.span("slow", cache="miss") as slow:
            clock.advance(2e-3)
            with tracer.span("child", depth=3):
                clock.advance(1e-3)
        ranked = sorted_by_duration(tracer.finished_roots())
        assert [span.name for span in ranked] == ["slow", "fast"]
        text = render_span_tree(slow)
        lines = text.splitlines()
        assert lines[0] == "slow 3.0ms {cache=miss}"
        assert lines[1] == "  child 1.0ms {depth=3}"


class TestSlowQueryLog:
    def _ops(self, reads: int = 5) -> OpCounter:
        ops = OpCounter()
        ops.cell_reads = reads
        return ops

    def test_latency_threshold(self):
        log = SlowQueryLog(latency_threshold=0.01)
        assert not log.consider(NULL_SPAN, self._ops(), 0.005, op="q")
        assert log.consider(NULL_SPAN, self._ops(), 0.02, op="q")
        assert log.qualified == 1
        (record,) = log.records()
        assert record.seconds == 0.02
        assert record.attributes == {"op": "q"}

    def test_op_threshold(self):
        log = SlowQueryLog(latency_threshold=9e9, op_threshold=100)
        assert not log.consider(NULL_SPAN, self._ops(reads=50), 0.0)
        assert log.consider(NULL_SPAN, self._ops(reads=200), 0.0)

    def test_sampling_counts_dropped_records(self):
        log = SlowQueryLog(sample_rate=0.0)
        assert not log.consider(NULL_SPAN, self._ops(), 1.0)
        assert log.qualified == 1
        assert log.sampled_out == 1
        assert len(log) == 0

    def test_ring_and_slowest(self):
        log = SlowQueryLog(capacity=2)
        for seconds in (0.3, 0.1, 0.2):
            log.consider(NULL_SPAN, self._ops(), seconds)
        assert len(log) == 2  # 0.3 evicted by the ring
        assert [r.seconds for r in log.slowest(2)] == [0.2, 0.1]
        log.clear()
        assert len(log) == 0

    def test_render_includes_ops_and_tree(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("engine.range_sum", cache="miss") as span:
            clock.advance(0.002)
        log = SlowQueryLog()
        log.consider(span, self._ops(reads=7), 0.002, op="range_sum")
        text = log.records()[0].render()
        assert "slow query: 2.000ms (op=range_sum)" in text
        assert "reads=7" in text
        assert "engine.range_sum 2.0ms {cache=miss}" in text

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            SlowQueryLog(capacity=0)
        with pytest.raises(ConfigurationError):
            SlowQueryLog(sample_rate=1.5)
        with pytest.raises(ConfigurationError):
            SlowQueryLog(latency_threshold=-1.0)


class TestObservabilityFacade:
    def test_shared_instruments_preregistered(self):
        obs = Observability()
        names = {family.name for family in obs.metrics.collect()}
        assert {
            "repro_method_query_seconds",
            "repro_method_query_ops",
            "repro_method_batch_path_total",
            "repro_tree_descent_depth",
        } <= names

    def test_disabled_is_inert_and_shared(self):
        assert NULL_OBS.enabled is False
        assert isinstance(NULL_OBS.metrics, NullRegistry)
        with NULL_OBS.span("anything", key=1) as span:
            span.set(more=2)
        assert NULL_OBS.tracer.finished_roots() == []
        assert NULL_OBS.metrics.render_prometheus() == ""
        with pytest.raises(ConfigurationError):
            Observability.disabled().enable()

    def test_enable_disable_toggle(self):
        obs = Observability()
        assert obs.enabled
        obs.disable()
        assert not obs.enabled
        obs.enable()
        assert obs.enabled

    def test_components_share_the_injected_clock(self):
        clock = ManualClock()
        obs = Observability(clock=clock)
        assert obs.clock is clock
        assert obs.tracer.clock is clock


def _drive_workload(obs: Observability) -> ShardedEngine:
    """A tiny deterministic serving session covering every outcome.

    miss (cold read) → hit (repeat) → stale (repeat after a write to
    the queried shard) → a multi-shard batch, on a 2-shard engine.
    """
    rng = np.random.default_rng(7)
    data = rng.integers(0, 9, size=(16, 16))
    engine = ShardedEngine.from_array(data, shards=2, method="ddc", obs=obs)
    engine.reset_stats()
    query = ((0, 0), (5, 5))          # entirely inside shard 0
    engine.range_sum(*query)          # miss
    engine.range_sum(*query)          # hit
    engine.add((2, 2), 3)             # bumps shard 0's epoch
    engine.range_sum(*query)          # stale
    engine.range_sum_many([query, ((0, 0), (15, 15)), ((9, 0), (14, 15))])
    return engine


class TestEngineAcceptance:
    """ISSUE acceptance: exposition, matching JSON, slow-query nesting."""

    def test_exposition_covers_shards_and_cache_outcomes(self):
        obs = Observability()
        engine = _drive_workload(obs)
        try:
            text = obs.metrics.render_prometheus()
            # Per-shard latency histograms.
            assert (
                'repro_engine_shard_seconds_bucket{shard="0",op="range_sum"'
                in text
            )
            assert "# TYPE repro_engine_shard_seconds histogram" in text
            # Cache outcome counters: all three results observed.
            assert 'repro_engine_cache_lookups_total{result="miss"} ' in text
            assert 'repro_engine_cache_lookups_total{result="hit"} ' in text
            assert 'repro_engine_cache_lookups_total{result="stale"} 1' in text
            # Gauges track live state (epoch matches the engine's own).
            assert (
                f'repro_engine_shard_epoch{{shard="0"}} {engine.epochs[0]}'
                in text
            )
            assert "repro_engine_cache_entries " in text
            # The engine is the one instrumented layer: its shards carry
            # no facade, so the method and tree families stay registered
            # but empty (docs/observability.md, "Dropped or merged").
            assert "repro_tree_descent_depth_bucket" not in text
            assert "repro_method_query_seconds_bucket" not in text
        finally:
            engine.close()

    def test_json_export_matches_exposition(self):
        obs = Observability()
        engine = _drive_workload(obs)
        try:
            text = obs.metrics.render_prometheus()
            doc = obs.metrics.to_json()
            by_name = {family["name"]: family for family in doc["metrics"]}

            lookups = {
                sample["labels"]["result"]: sample["value"]
                for sample in by_name["repro_engine_cache_lookups_total"][
                    "samples"
                ]
            }
            for result, value in lookups.items():
                assert (
                    f'repro_engine_cache_lookups_total{{result="{result}"}} '
                    f"{int(value)}\n"
                ) in text

            prom = _histogram_samples_from_prometheus(
                text, "repro_engine_shard_seconds"
            )
            for sample in by_name["repro_engine_shard_seconds"]["samples"]:
                key = frozenset(sample["labels"].items())
                assert {
                    bucket["le"]: bucket["count"]
                    for bucket in sample["buckets"]
                } == prom[key]["buckets"]
                assert sample["count"] == prom[key]["count"]
        finally:
            engine.close()

    def test_slow_query_records_nested_tree_with_op_deltas(self):
        # latency threshold 0.0 → every cache-missing query qualifies
        obs = Observability()
        engine = _drive_workload(obs)
        try:
            records = obs.slow_log.records()
            assert records, "no slow-query records captured"
            scalar = [
                r for r in records if r.attributes.get("op") == "range_sum"
            ]
            assert scalar, "no scalar range_sum record"
            record = scalar[0]
            # The paper's cost axis rides along: a real OpCounter diff.
            assert record.ops.node_visits > 0
            root = record.span
            assert root.name == "engine.range_sum"
            assert root.attributes["cache"] in ("miss", "stale")
            (shard_span,) = root.children
            assert shard_span.name == "shard.range_sum"
            # The shard span is the leaf: it carries the per-shard
            # OpCounter delta the method span used to, and the record's
            # ops are the sum of those deltas.
            assert shard_span.children == []
            assert shard_span.attributes["node_visits"] > 0
            assert shard_span.attributes["node_visits"] == record.ops.node_visits
            assert shard_span.attributes["cell_ops"] == record.ops.total_cell_ops
            assert record.shards == [0]
        finally:
            engine.close()

    def test_batch_query_traces_nest_under_the_request_root(self):
        obs = Observability()
        rng = np.random.default_rng(8)
        data = rng.integers(0, 9, size=(16, 16))
        engine = ShardedEngine.from_array(
            data, shards=2, method="ddc", obs=obs
        )
        try:
            engine.range_sum_many([((0, 0), (15, 15)), ((1, 1), (14, 14))])
            batch_roots = [
                span
                for span in obs.tracer.finished_roots()
                if span.name == "engine.range_sum_many"
            ]
            assert batch_roots
            root = batch_roots[0]
            assert root.attributes["queries"] == 2
            shard_names = {child.name for child in root.children}
            assert shard_names == {"shard.range_sum"}
            assert len(root.children) >= 2
        finally:
            engine.close()

    def test_instrumentation_does_not_change_results(self):
        rng = np.random.default_rng(9)
        data = rng.integers(0, 9, size=(12, 12))
        queries = [((0, 0), (11, 11)), ((2, 3), (9, 10)), ((5, 5), (5, 5))]
        plain = ShardedEngine.from_array(data, shards=3, method="ddc")
        traced = ShardedEngine.from_array(
            data, shards=3, method="ddc", obs=Observability()
        )
        try:
            for low, high in queries:
                assert plain.range_sum(low, high) == traced.range_sum(low, high)
            plain.add((4, 4), 5)
            traced.add((4, 4), 5)
            assert plain.range_sum_many(queries) == traced.range_sum_many(
                queries
            )
        finally:
            plain.close()
            traced.close()

    def test_default_engine_stays_dark(self):
        rng = np.random.default_rng(10)
        data = rng.integers(0, 9, size=(8, 8))
        engine = ShardedEngine.from_array(data, shards=2, method="ddc")
        try:
            assert engine.obs is NULL_OBS
            engine.range_sum((0, 0), (7, 7))
            engine.add((1, 1), 2)
            assert NULL_OBS.tracer.finished_roots() == []
            assert NULL_OBS.metrics.render_prometheus() == ""
        finally:
            engine.close()


# ----------------------------------------------------------------------
# What always-on obs costs, and emits on, the served path
# ----------------------------------------------------------------------


def _served_engine(obs: Observability) -> ShardedEngine:
    """A small engine built the way ``repro serve`` builds its own:
    float cube, ``vector`` shards, strict resilience, obs on."""
    data = np.random.default_rng(11).random((32, 32))
    return ShardedEngine.from_array(
        data,
        shards=4,
        method="vector",
        obs=obs,
        resilience=ResiliencePolicy(degradation="strict"),
    )


def _spy(monkeypatch, cls, name, record):
    """Wrap ``cls.name`` so every call first reports ``self``."""
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        record(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)


def _serve(engine, requests):
    """Run ``requests(client)`` against a :class:`CubeServer` over
    ``engine``; returns what it returned."""
    import asyncio

    from repro.serve import CubeServer, ServeClient

    async def scenario():
        server = CubeServer(engine)
        await server.start()
        try:
            async with ServeClient("127.0.0.1", server.port) as client:
                return await requests(client)
        finally:
            await server.stop()

    return asyncio.run(scenario())


class TestServedPathCost:
    """The wall-clock-free guard on always-on obs: after warm-up a read
    miss makes no ``labels()`` lookup, opens one engine span plus one
    span per shard it touches, and never walks every shard's counters."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import collections

        from repro.obs.metrics import _Family

        tally = collections.Counter()
        for cls, name in (
            (_Family, "labels"),
            (Tracer, "span"),
            (ShardedEngine, "aggregate_stats"),
        ):
            _spy(monkeypatch, cls, name, lambda _, name=name: tally.update([name]))
        return tally

    @pytest.mark.parametrize("high_row", [5, 12, 20, 31])
    def test_range_sum_miss(self, calls, high_row):
        engine = _served_engine(Observability())
        try:
            engine.range_sum((0, 0), (31, 31))
            engine.add_many([((3, 3), 1.0)])
            low, high = (1, 2), (high_row, 9)
            touched = len(list(engine.plan.decompose(low, high)))
            calls.clear()
            engine.range_sum(low, high)
            assert calls == {"span": 1 + touched}
            calls.clear()
            engine.range_sum(low, high)  # now a hit
            assert calls == {"span": 1}
        finally:
            engine.close()

    def test_served_query_and_update(self, calls):
        engine = _served_engine(Observability())

        async def requests(client):
            await client.query([0, 0], [31, 31])  # warm-up: binds routes
            await client.update([3, 3], 1.0)
            calls.clear()
            query = await client.query([2, 3], [13, 20])  # miss, shards 0-1
            per_query = dict(calls)
            calls.clear()
            update = await client.update([20, 5], 2.0)
            assert query.status == update.status == 200
            return per_query, dict(calls)

        try:
            per_query, per_update = _serve(engine, requests)
        finally:
            engine.close()
        assert per_query == {"span": 3}
        assert per_update == {"span": 1}


#: Every span and metric series a served one-range ``/query`` miss over
#: shards 0-1 and a one-cell ``/update`` to shard 2 emit, as
#: ``docs/observability.md`` ("What a served request emits") lists them.
SERVED_QUERY_SPANS = ("engine.range_sum", ("shard.range_sum", "shard.range_sum"))
SERVED_UPDATE_SPANS = ("engine.add_many", ())
_SERVED_COMMON = {("repro_serve_inflight", ())}
SERVED_QUERY_SERIES = _SERVED_COMMON | {
    ("repro_serve_requests_total", (("code", "200"), ("route", "/query"))),
    ("repro_serve_request_seconds", (("route", "/query"),)),
    ("repro_engine_request_seconds", (("op", "range_sum"),)),
    ("repro_engine_cache_lookups_total", (("result", "miss"),)),
    ("repro_engine_shard_seconds", (("op", "range_sum"), ("shard", "0"))),
    ("repro_engine_shard_seconds", (("op", "range_sum"), ("shard", "1"))),
    ("repro_engine_fanout_wait_seconds", ()),
    ("repro_engine_cache_entries", ()),
}
SERVED_UPDATE_SERIES = _SERVED_COMMON | {
    ("repro_serve_requests_total", (("code", "200"), ("route", "/update"))),
    ("repro_serve_request_seconds", (("route", "/update"),)),
    ("repro_engine_request_seconds", (("op", "add_many"),)),
    ("repro_engine_shard_epoch", (("shard", "2"),)),
}
#: What the served path stopped emitting when the engine became the one
#: instrumented layer (its shards carry no facade of their own).
DROPPED_UNDER_ENGINE = (
    "method.range_sum",
    "tree.prefix_sum",
    "repro_method_query_seconds",
    "repro_method_query_ops",
    "repro_method_batch_path_total",
    "repro_tree_descent_depth",
)


class TestServedInventory:
    @pytest.fixture
    def writes(self, monkeypatch):
        from repro.obs import metrics

        written: list = []
        for cls, name in (
            (metrics._CounterChild, "inc"),
            (metrics._GaugeChild, "set"),
            (metrics._HistogramChild, "observe"),
        ):
            _spy(monkeypatch, cls, name, written.append)
        return written

    def test_served_query_and_update_emit_the_pinned_inventory(self, writes):
        obs = Observability()
        engine = _served_engine(obs)

        async def requests(client):
            await client.query([0, 0], [31, 31])
            await client.update([3, 3], 1.0)
            obs.tracer.clear()
            writes.clear()
            await client.query([2, 3], [13, 20])
            query_writes = list(writes)
            writes.clear()
            await client.update([20, 5], 2.0)
            return query_writes, list(writes)

        try:
            query_writes, update_writes = _serve(engine, requests)
        finally:
            engine.close()
        series = {
            id(child): (family.name, tuple(sorted(labels.items())))
            for family in obs.metrics.collect()
            for labels, child in family.samples()
        }
        assert {series[id(c)] for c in query_writes} == SERVED_QUERY_SERIES
        assert {series[id(c)] for c in update_writes} == SERVED_UPDATE_SERIES
        query_root, update_root = obs.tracer.finished_roots()
        for root, (name, children) in (
            (query_root, SERVED_QUERY_SPANS),
            (update_root, SERVED_UPDATE_SPANS),
        ):
            assert root.name == name
            assert tuple(child.name for child in root.children) == children
            assert all(child.children == [] for child in root.children)
        assert [c.attributes["shard"] for c in query_root.children] == [0, 1]
        assert query_root.attributes["cache"] == "miss"
        # The slow log still blames shards and charges the paper's ops.
        record = obs.slow_log.records()[-1]
        assert record.shards == [0, 1]
        assert record.ops.total_cell_ops > 0
        assert "shards=[0, 1]" in record.render()
        emitted = {name for name, _ in SERVED_QUERY_SERIES | SERVED_UPDATE_SERIES}
        emitted |= {span.name for root in (query_root, update_root) for span in root.walk()}
        assert emitted.isdisjoint(DROPPED_UNDER_ENGINE)

    def test_chunked_batch_opens_one_engine_span_per_chunk(self):
        from repro.serve.server import _CHUNK

        obs = Observability()
        engine = _served_engine(obs)
        size = 2 * _CHUNK + 1
        ranges = [((0, 0), (i % 32, (i // 32) % 32)) for i in range(size)]
        updates = [((i % 32, (i * 7) % 32), 1.0) for i in range(size)]

        async def requests(client):
            obs.tracer.clear()
            query = await client.query_batch(ranges)
            update = await client.update_many(updates)
            assert query.status == update.status == 200

        try:
            _serve(engine, requests)
        finally:
            engine.close()
        roots = obs.tracer.finished_roots()
        assert [root.name for root in roots] == (
            ["engine.range_sum_many"] * 3 + ["engine.add_many"] * 3
        )
        assert [root.attributes["queries"] for root in roots[:3]] == [
            _CHUNK, _CHUNK, 1,
        ]

    def test_docs_list_the_inventory_and_what_was_dropped(self):
        from pathlib import Path

        text = (
            Path(__file__).resolve().parents[1] / "docs" / "observability.md"
        ).read_text()
        emitted_part, _, dropped_part = text.partition("### Dropped or merged")
        _, _, emitted_part = emitted_part.partition("## What a served request emits")
        dropped_part = dropped_part.partition("\n## ")[0]
        names = {SERVED_QUERY_SPANS[0], SERVED_UPDATE_SPANS[0], "shard.range_sum"}
        names |= {name for name, _ in SERVED_QUERY_SERIES | SERVED_UPDATE_SERIES}
        assert [n for n in sorted(names) if f"`{n}" not in emitted_part] == []
        assert [n for n in DROPPED_UNDER_ENGINE if f"`{n}" not in dropped_part] == []
