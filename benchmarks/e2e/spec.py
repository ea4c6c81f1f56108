"""Names the benchmark is made of: workloads, metrics, sizes.

``BENCHMARK.json`` at the repository root declares the same workload
and metric names with their units, directions and regression bounds;
``selftest.py`` fails when the two drift apart.  Round sizes are fixed
op counts (so count metrics repeat exactly per seed); the figures behind
them are seed-state measurements on the 2-core sandbox and serve sizing
only — a round is meant to last about two seconds there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: (name, unit, better): the end-to-end metrics BENCHMARK.json bounds.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("read_p50_us", "us", "lower"),
    ("write_p50_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Measured, printed and kept in every result document, but not bounded
#: by the driver.  The tails: on the 2-core sandbox noisy periods outlast
#: a run, and over two sets of ten runs of one commit the interquartile
#: spread of p95 reached 28% (``engine_batch_3d`` reads; 11% in the other
#: set) and that of p99 70% (``serve_open``) — a bound of at most 25%
#: would reject unchanged code.  p95 is the highest percentile with ten
#: samples beyond it in every round (the smallest holds 300 calls of a
#: kind) and is taken per round, median over rounds; p99 is pooled over
#: all rounds.  ``failed_share``: the driver carries failures in its own
#: ``attempted``/``failed`` keys and admits no metric that reads 0;
#: ``compare.py`` treats any increase as a regression.
REPORTED_ONLY = (
    ("read_p95_us", "us", "lower"),
    ("write_p95_us", "us", "lower"),
    ("read_p99_us", "us", "lower"),
    ("write_p99_us", "us", "lower"),
    ("failed_share", "ratio", "lower"),
)

#: Metrics that must repeat exactly for a seed (compare.py checks
#: equality, selftest.py checks they differ for another seed).
COUNT_METRICS = (
    "core.cell_reads_per_query",
    "core.cell_writes_per_update",
    "core.node_visits_per_query",
    "engine.subqueries_per_read",
)

PER_LAYER = (
    ("core.cell_reads_per_query", "count", "lower"),
    ("core.cell_writes_per_update", "count", "lower"),
    ("core.node_visits_per_query", "count", "lower"),
    ("methods.query_us", "us", "lower"),
    ("methods.update_us", "us", "lower"),
    ("methods.build_s", "s", "lower"),
    ("methods.calibration_s", "s", "lower"),
    ("methods.memory_cells_per_cell", "ratio", "lower"),
    ("engine.cache_hit_rate", "ratio", "higher"),
    ("engine.invalidations_per_write", "count", "lower"),
    ("engine.evictions", "count", "lower"),
    ("engine.hit_us", "us", "lower"),
    ("engine.miss_us", "us", "lower"),
    ("engine.cache_probe_us", "us", "lower"),
    ("engine.decompose_us", "us", "lower"),
    ("engine.subqueries_per_read", "count", "lower"),
    ("engine.read_self_us", "us", "lower"),
    ("engine.write_self_us", "us", "lower"),
    ("engine.process.worker_cpu_s", "s", "lower"),
    ("engine.process.parent_cpu_s", "s", "lower"),
    ("engine.process.buffered_deltas_peak", "count", "lower"),
    ("engine.process.restarts", "count", "lower"),
    ("engine.resilience.degraded", "count", "lower"),
    ("serve.decode_us", "us", "lower"),
    ("serve.encode_us", "us", "lower"),
    ("serve.engine_us", "us", "lower"),
    ("serve.round_trip_us", "us", "lower"),
    ("serve.edge_us", "us", "lower"),
    ("serve.handler_p50_us", "us", "lower"),
    ("serve.cpu_us_per_request", "us", "lower"),
    ("serve.coalesced_share", "ratio", "higher"),
    ("serve.peak_pressure", "ratio", "lower"),
    ("serve.shed_share", "ratio", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.queue_wait_us", "us", "lower"),
    ("obs.read_overhead_us", "us", "lower"),
    ("loadgen.lateness_p99_us", "us", "lower"),
    ("loadgen.unchecked_read_share", "ratio", "lower"),
    ("loadgen.trace_overhead_ratio", "ratio", "higher"),
)


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  A *call* is one program call; a batch call
    carries ``batch`` ops, a scalar call one."""

    name: str
    why: str
    kind: str  # "method" | "engine" | "serve"
    shape: tuple
    build: dict
    read_share: float
    pool: int  # 0: uniform random ranges; else zipf(1.1) picks from a pool
    round_calls: int
    warm_calls: int
    trace_calls: int
    pool_frac: float = 0.10
    batch: int = 1
    check_every: int = 1  # in-process: verify every n-th read
    rate: float = 0.0  # serve: 0 closed loop, else open-loop arrivals/s
    setups: int = 5  # set-ups per run, each in a fresh process; their median is setup_s
    #: Add a seeded 1..9 to every cell of the clustered cube.  The DDC is
    #: sparse: over near-empty data uniform writes keep growing it and
    #: reads slow fourfold within a run, so a faster program would be
    #: measured on a fuller tree.  Dense from the start, it is stationary.
    dense_background: bool = False


WORKLOADS = (
    Workload(
        name="ddc_mixed_2d",
        why="paper structure alone: build_method('ddc') on a dense 256x256, 50/50 uniform "
        "range_sum/add; core+methods do all the work, engine and serve none",
        kind="method",
        shape=(256, 256),
        build={"method": "ddc"},
        read_share=0.5,
        pool=0,
        round_calls=16_000,
        warm_calls=2_000,
        trace_calls=5_000,
        dense_background=True,
    ),
    Workload(
        name="engine_hot_reads",
        why="serial 4-shard vector engine 1024x1024, 98% zipf reads from a pool of "
        "512 that fits the result cache, 2% add: lock+cache carry reads, writes invalidate",
        kind="engine",
        shape=(1024, 1024),
        build={"method": "vector", "shards": 4, "executor": "serial", "cache_size": 1024},
        read_share=0.98,
        pool=512,
        round_calls=120_000,
        warm_calls=2_000,
        trace_calls=5_000,
        check_every=16,
    ),
    Workload(
        name="engine_batch_3d",
        why="same engine 64x64x64, alternating range_sum_many/add_many of 64 uniform "
        "items: working set exceeds the cache, work sits in fan-out and slab gather/scatter",
        kind="engine",
        shape=(64, 64, 64),
        build={"method": "vector", "shards": 4, "executor": "serial", "cache_size": 1024},
        read_share=0.5,
        pool=0,
        round_calls=600,
        warm_calls=32,
        trace_calls=80,
        batch=64,
    ),
    Workload(
        name="process_mixed",
        why="process executor 512x512, 2 shm shards, 80% zipf reads/20% add: the only "
        "path through seqlock gathers, delta ledger and pipelined acks",
        kind="engine",
        shape=(512, 512),
        build={"method": "vector", "shards": 2, "executor": "process", "cache_size": 1024},
        read_share=0.8,
        pool=512,
        round_calls=90_000,
        warm_calls=2_000,
        trace_calls=5_000,
        check_every=4,
    ),
    Workload(
        name="serve_closed",
        why="python -m repro serve 256x256, one generator thread, min(nproc,4) keep-alive "
        "connections closed loop, 80% /query zipf 20% /update: throughput is server capacity",
        kind="serve",
        shape=(256, 256),
        build={"method": "vector", "shards": 4},
        read_share=0.8,
        pool=256,
        round_calls=5_000,
        warm_calls=1_000,
        trace_calls=2_000,
    ),
    Workload(
        name="serve_open",
        why="same server and mix, open loop at a fixed 800 arrivals/s timed from the due "
        "time: latency at an offered rate, where added queueing or batching delay shows",
        kind="serve",
        shape=(256, 256),
        build={"method": "vector", "shards": 4},
        read_share=0.8,
        pool=256,
        round_calls=1_600,
        warm_calls=800,
        trace_calls=2_000,
        rate=800.0,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: Timed rounds run until ``--seconds`` is measured, and at least these.
MIN_ROUNDS = 3

_SMOKE_SHAPES = {2: (48, 48), 3: (16, 16, 16)}


def smoke(workload: Workload) -> Workload:
    """The same workload at toy size (whole suite under 30 s)."""
    return replace(
        workload,
        shape=_SMOKE_SHAPES[len(workload.shape)],
        pool=min(workload.pool, 64),
        batch=min(workload.batch, 16),
        round_calls=max(40, workload.round_calls // 100),
        warm_calls=max(10, workload.warm_calls // 50),
        trace_calls=max(40, workload.trace_calls // 25),
        check_every=1,
        setups=1,
    )
