"""Command-line interface: build, query, update, and inspect data cubes.

Examples::

    # build a DDC from a CSV of (x, y, value) records and save it
    python -m repro build points.csv cube.npz --method ddc --dims 2

    # range-sum query over an inclusive box
    python -m repro query cube.npz --low 0 0 --high 63 63

    # apply a point update and persist the change
    python -m repro update cube.npz --cell 10 12 --delta 5

    # structure, storage, and cost statistics
    python -m repro info cube.npz

    # deep-check every structural invariant (non-zero exit on failure)
    python -m repro audit cube.npz

    # regenerate the paper's analytic artifacts
    python -m repro table1
    python -m repro table2
    python -m repro figure1

    # replay a serving workload and print per-shard/cache statistics
    # (including p50/p95/p99 shard latency from the live histograms);
    # --executor process serves the shards from shared-memory slabs
    python -m repro serve-stats --shape 128 128 --shards 4 --events 500

    # same replay, dumping the metrics registry instead
    python -m repro metrics --format prom
    python -m repro metrics --format json

    # same replay, printing the N slowest span trees + slow-query log
    # (optionally also as a chrome://tracing / Perfetto document)
    python -m repro trace --slowest 3 --slow-ms 0.5 --chrome trace.json

    # live serving dashboard: per-worker latency tables harvested from
    # the pool's shared-memory metric shards + the SLO verdict
    python -m repro top --executor process --iterations 3
    python -m repro top --executor process --once   # CI smoke mode

    # serve a seeded clustered cube over HTTP (/query /update /metrics
    # /healthz) until SIGINT/SIGTERM
    python -m repro serve --shape 256 256 --port 8734

    # flow analyses (REP011-REP012) against the committed baseline
    python -m repro analyze src/ --baseline benchmarks/baselines/analyze.json

Those are all fourteen subcommands.  None of them measures performance:
the one benchmark command is ``python benchmarks/e2e/run.py`` (declared
in ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .methods.registry import create_method, method_names
from .model import (
    figure1_series,
    render_figure1,
    render_table1,
    render_table2,
    table1,
    table2,
)
from .persist import load_cube, save_cube

__all__ = ["build_parser", "main"]


def _read_records(path: Path, dims: int) -> list[tuple[tuple[int, ...], float]]:
    """Parse CSV rows of ``coord_1, ..., coord_d, value``.

    A non-numeric first row is treated as a header and skipped.
    """
    records = []
    with open(path, newline="") as handle:
        for row_number, row in enumerate(csv.reader(handle)):
            if not row or all(not field.strip() for field in row):
                continue
            if len(row) != dims + 1:
                raise SystemExit(
                    f"{path}:{row_number + 1}: expected {dims + 1} columns "
                    f"(got {len(row)})"
                )
            try:
                cell = tuple(int(field) for field in row[:dims])
                value = float(row[dims])
            except ValueError:
                if row_number == 0:
                    continue  # header
                raise SystemExit(
                    f"{path}:{row_number + 1}: non-numeric row {row!r}"
                ) from None
            records.append((cell, value))
    return records


def _command_build(args) -> int:
    source = Path(args.source)
    if source.suffix == ".npy":
        dense = np.load(source)
        shape = dense.shape
        records = None
    else:
        records = _read_records(source, args.dims)
        if not records:
            raise SystemExit(f"{source}: no records found")
        shape = tuple(
            max(cell[axis] for cell, _ in records) + 1 for axis in range(args.dims)
        )
        dense = None
    dtype = np.float64 if args.float else np.int64
    method = create_method(args.method, shape, dtype=dtype)
    if dense is not None:
        method = type(method).from_array(dense.astype(dtype), dtype=dtype)
    else:
        method.add_many(
            [(cell, value if args.float else int(value)) for cell, value in records]
        )
    save_cube(method, args.cube)
    print(
        f"built {args.method} cube of shape {method.shape} "
        f"({method.memory_cells():,} stored cells) -> {args.cube}"
    )
    return 0


def _command_query(args) -> int:
    cube = load_cube(args.cube)
    if args.high is None:
        result = cube.prefix_sum(tuple(args.low))
        print(result)
    else:
        result = cube.range_sum(tuple(args.low), tuple(args.high))
        print(result)
    return 0


def _command_update(args) -> int:
    cube = load_cube(args.cube)
    delta = args.delta
    cube.add(tuple(args.cell), delta)
    save_cube(cube, args.cube)
    print(f"cell {tuple(args.cell)} += {delta}; new total {cube.total()}")
    return 0


def _command_info(args) -> int:
    cube = load_cube(args.cube)
    from .core.growth import GrowableCube

    if isinstance(cube, GrowableCube):
        print("kind:          growable cube")
        print(f"dims:          {cube.dims}")
        print(f"origin:        {cube.origin}")
        print(f"side:          {cube.side}")
        print(f"bounds:        {cube.bounds}")
        print(f"total:         {cube.total()}")
        print(f"stored cells:  {cube.memory_cells():,}")
        return 0
    print(f"method:        {cube.name}")
    print(f"shape:         {cube.shape}")
    print(f"dtype:         {cube.dtype}")
    print(f"total:         {cube.total()}")
    print(f"stored cells:  {cube.memory_cells():,}")
    logical = 1
    for size in cube.shape:
        logical *= size
    print(f"logical cells: {logical:,}")
    print(f"overhead:      {cube.memory_cells() / logical:.3f}x")
    return 0


def _command_audit(args) -> int:
    from .analysis import audit

    cube = load_cube(args.cube)
    report = audit(cube, raise_on_failure=False)
    print(report.render())
    return 0 if report.ok else 1


def _run_serving_stream(engine, events) -> None:
    """Replay a read/write event stream against a serving engine."""
    from .workloads import RangeQuery

    for event in events:
        if isinstance(event, RangeQuery):
            engine.range_sum(event.low, event.high)
        else:
            engine.add(event.cell, event.delta)


def _replay_engine(args, obs):
    """The instrumented engine the replay commands serve from.

    ``serve-stats`` / ``metrics`` / ``trace`` / ``top`` share one
    argument block (``--shape``, ``--shards``, ``--executor``, ...) and
    therefore one engine: a clustered cube of ``--shape`` sharded as
    asked, with ``obs`` wired in.
    """
    from .engine import ShardedEngine
    from .workloads import clustered

    return ShardedEngine.from_array(
        clustered(tuple(args.shape), seed=args.seed),
        shards=args.shards,
        method=args.method,
        workers=args.workers or None,
        executor=args.executor,
        cache_size=args.cache,
        obs=obs,
    )


def _traced_replay(args, obs):
    """Replay the workload once against an engine instrumented by ``obs``.

    Shared by ``serve-stats`` / ``metrics`` / ``trace``.  Returns
    ``(engine, events, pool)`` with the engine already closed; ``pool``
    is the worker-pool snapshot captured *before* shutdown (None outside
    process mode).
    """
    from .workloads import read_write_stream

    events = read_write_stream(
        tuple(args.shape),
        args.events,
        mix=args.mix,
        locality=args.locality,
        seed=args.seed + 1,
    )
    engine = _replay_engine(args, obs)
    engine.reset_stats()
    _run_serving_stream(engine, events)
    if engine.process_pool is not None:
        # Ship any still-buffered write deltas so the workers' final
        # apply timings are published, then pull every worker's metric
        # shard into the parent registry before it renders.
        engine.process_pool.flush()
    engine.harvest_worker_metrics()
    pool = engine.pool_info()
    engine.close()
    return engine, events, pool


def _command_serve_stats(args) -> int:
    from .obs import Observability

    obs = Observability()
    engine, events, pool = _traced_replay(args, obs)

    print(f"engine:    {engine!r}")
    print(f"events:    {len(events)} ({args.mix:.0%} reads, {args.locality})")
    info = engine.cache_info()
    print(
        f"cache:     {info['hits']} hits / {info['misses']} misses "
        f"(hit rate {info['hit_rate']:.2%}), {info['size']}/{info['capacity']} "
        f"entries, {info['invalidations']} invalidations, "
        f"{info['revalidations']} revalidations, "
        f"{info['evictions']} evictions ({info['stale_evictions']} stale)"
    )
    merged = engine.aggregate_stats()
    print(
        f"ops:       reads={merged.cell_reads} writes={merged.cell_writes} "
        f"node_visits={merged.node_visits}"
    )
    latency = obs.metrics.histogram(
        "repro_engine_shard_seconds",
        "Per-shard sub-operation latency.",
        labels=("shard", "op"),
    )
    print(f"{'shard':>5} {'span':<14} {'epoch':>6} {'cells':>10} "
          f"{'visits':>8} {'reads':>8} {'writes':>8} "
          f"{'p50us':>8} {'p95us':>8} {'p99us':>8}")
    for shard_row in engine.shard_report():
        span = f"[{shard_row['span'][0]}, {shard_row['span'][1]})"
        child = latency.labels(shard=str(shard_row["shard"]), op="range_sum")
        p50, p95, p99 = (child.quantile(q) * 1e6 for q in (0.5, 0.95, 0.99))
        print(
            f"{shard_row['shard']:>5} {span:<14} {shard_row['epoch']:>6} "
            f"{shard_row['memory_cells']:>10,} {shard_row['node_visits']:>8,} "
            f"{shard_row['cell_reads']:>8,} {shard_row['cell_writes']:>8,} "
            f"{p50:>8.1f} {p95:>8.1f} {p99:>8.1f}"
        )
    if pool is not None:
        print(
            f"pool:      {pool['workers']} worker(s) "
            f"({pool['start_method']} start), "
            f"{pool['restarts']} restart(s), "
            f"{pool['buffered_deltas']} buffered delta(s)"
        )
        for lane in pool["lanes"]:
            shards = ", ".join(str(s) for s in lane["shards"])
            print(
                f"  lane {lane['worker']}: pid {lane['pid']} "
                f"{'alive' if lane['alive'] else 'DEAD'}, "
                f"shards [{shards}], restarts {lane['restarts']}, "
                f"pending acks {lane['pending_acks']}"
            )
    return 0


def _command_metrics(args) -> int:
    import json

    from .obs import Observability

    obs = Observability()
    _traced_replay(args, obs)
    if args.format == "prom":
        sys.stdout.write(obs.metrics.render_prometheus())
    else:
        print(json.dumps(obs.metrics.to_json(), indent=2))
    return 0


def _command_trace(args) -> int:
    from .obs import (
        Observability,
        render_span_tree,
        sorted_by_duration,
        write_chrome_trace,
    )

    obs = Observability(
        trace_sample_every=args.sample_every,
        slow_query_seconds=args.slow_ms / 1e3,
    )
    _engine, events, _pool = _traced_replay(args, obs)
    roots = sorted_by_duration(obs.tracer.finished_roots())[: args.slowest]
    print(
        f"{len(events)} events replayed, {len(obs.tracer.finished_roots())} "
        f"traces retained; {args.slowest} slowest:"
    )
    for rank, root in enumerate(roots, start=1):
        print(f"\n#{rank}")
        print(render_span_tree(root, indent=1))
    log = obs.slow_log
    print(
        f"\nslow-query log: {len(log)} retained "
        f"({log.qualified} qualified, {log.sampled_out} sampled out)"
    )
    for record in log.slowest(args.slowest):
        print()
        print(record.render())
    if args.chrome:
        written = write_chrome_trace(args.chrome, obs.tracer.finished_roots())
        print(f"\nwrote {written} span event(s) -> {args.chrome}")
    return 0


def _render_top_frame(obs, engine, watchdog, frame: int) -> str:
    """One ``repro top`` dashboard frame as a multi-line string."""
    lines = [f"repro top — frame {frame} — {engine!r}"]
    requests = obs.metrics.get("repro_engine_request_seconds")
    if requests is not None:
        lines.append(
            f"{'op':<16} {'count':>8} {'p50us':>9} {'p95us':>9} {'p99us':>9}"
        )
        for labels, child in sorted(
            requests.samples(), key=lambda pair: sorted(pair[0].items())
        ):
            if child.count == 0:
                continue
            p50, p95, p99 = (
                child.quantile(q) * 1e6 for q in (0.5, 0.95, 0.99)
            )
            lines.append(
                f"{labels.get('op', '?'):<16} {child.count:>8} "
                f"{p50:>9.1f} {p95:>9.1f} {p99:>9.1f}"
            )
    info = engine.cache_info()
    lines.append(
        f"cache: {info['hits']} hits / {info['misses']} misses "
        f"(hit rate {info['hit_rate']:.2%}), "
        f"{info['size']}/{info['capacity']} entries, "
        f"{info['revalidations']} revalidations"
    )
    pool = engine.pool_info()
    if pool is not None:
        telemetry = pool.get("telemetry")
        extra = (
            f", {telemetry['harvests']} harvest(s), "
            f"{telemetry['torn_snapshots']} torn snapshot(s)"
            if telemetry
            else ""
        )
        lines.append(
            f"pool:  {pool['alive']}/{pool['workers']} worker(s) alive, "
            f"{pool['restarts']} restart(s){extra}"
        )
        gather = obs.metrics.get("repro_worker_gather_seconds")
        apply_ = obs.metrics.get("repro_worker_apply_seconds")
        ops = obs.metrics.get("repro_worker_ops_total")

        def _by_worker(family, pick):
            out: dict[str, float] = {}
            if family is None:
                return out
            for labels, child in family.samples():
                worker = labels.get("worker")
                if worker is not None:
                    out[worker] = out.get(worker, 0.0) + pick(child)
            return out

        gather_p95 = _by_worker(
            gather, lambda c: c.quantile(0.95) if c.count else 0.0
        )
        apply_p95 = _by_worker(
            apply_, lambda c: c.quantile(0.95) if c.count else 0.0
        )
        op_totals = _by_worker(ops, lambda c: c.value)
        workers = sorted(
            set(gather_p95) | set(apply_p95) | set(op_totals), key=str
        )
        if workers:
            lines.append(
                f"{'worker':<8} {'gather p95us':>13} {'apply p95us':>12} "
                f"{'ops':>8}"
            )
            for worker in workers:
                lines.append(
                    f"{worker:<8} {gather_p95.get(worker, 0.0) * 1e6:>13.1f} "
                    f"{apply_p95.get(worker, 0.0) * 1e6:>12.1f} "
                    f"{op_totals.get(worker, 0.0):>8.0f}"
                )
    lines.append(watchdog.render())
    return "\n".join(lines)


def _command_top(args) -> int:
    """Live serving dashboard: replay traffic, harvest, render, repeat.

    Each frame replays one event stream (a fresh seed per frame, so the
    workload keeps moving), harvests the pool workers' shared-memory
    metric shards, and prints request/cache/worker tables plus the SLO
    verdict.  ``--once`` renders a single frame and exits — the CI smoke
    mode.  Exit code: 0 while the last frame's SLO verdict is healthy,
    1 otherwise.
    """
    import time

    from .obs import Observability, engine_watchdog, evaluate_health
    from .workloads import read_write_stream

    shape = tuple(args.shape)
    obs = Observability()
    engine = _replay_engine(args, obs)
    watchdog = engine_watchdog(obs, engine)
    frames = 1 if args.once else max(1, args.iterations)
    verdict = {"healthy": True}
    try:
        for frame in range(1, frames + 1):
            events = read_write_stream(
                shape,
                args.events,
                mix=args.mix,
                locality=args.locality,
                seed=args.seed + frame,
            )
            _run_serving_stream(engine, events)
            if engine.process_pool is not None:
                engine.process_pool.flush()
            # The same verdict path /healthz serves decides this
            # command's exit code.
            verdict = evaluate_health(watchdog)
            print(_render_top_frame(obs, engine, watchdog, frame))
            if frame < frames:
                print()
                time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    finally:
        engine.close()
    return 0 if verdict["healthy"] else 1


def _command_serve(args) -> int:
    """Serve a synthetic cube over HTTP until signalled (or --duration).

    Builds a clustered cube from ``--shape``/``--seed`` — the load
    generator can rebuild the same cube locally and verify responses
    exactly — and serves it with per-tenant token buckets, one engine
    turn, and a bound on the demand waiting for it (see
    ``docs/serving.md``).  Prints one ``listening on http://host:port``
    line once the socket is bound.
    """
    import asyncio
    import signal

    import numpy as np

    from .engine import ShardedEngine
    from .obs import Observability
    from .serve import AdmissionPolicy, CubeServer
    from .workloads import clustered

    shape = tuple(args.shape)
    # Serve a float cube, so fractional deltas are accepted (an integer
    # cube answers them with a 400).
    data = np.asarray(clustered(shape, seed=args.seed), dtype=float)
    obs = Observability()
    engine = ShardedEngine.from_array(
        data,
        shards=args.shards,
        method=args.method,
        workers=args.workers or None,
        executor=args.executor,
        cache_size=args.cache,
        obs=obs,
    )
    policy = AdmissionPolicy(
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
    )

    async def _run() -> None:
        server = CubeServer(
            engine, host=args.host, port=args.port, policy=policy, obs=obs
        )
        await server.start()
        print(f"serving {engine!r}")
        print(f"listening on {server.address}", flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        if args.duration > 0:
            loop.call_later(args.duration, stop.set)
        await stop.wait()
        print("draining...", flush=True)
        await server.stop()
        print(_serve_summary(server.stats()))

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    finally:
        engine.close()
    return 0


def _serve_summary(stats: dict) -> str:
    """The drain line: 429 refusals are ``throttled``, 503s ``rejected``."""
    return (
        f"served: throttled {stats['throttled']}, "
        f"rejected {stats['overflow_rejected']}"
    )


def _command_analyze(args) -> int:
    """Run the flow analyses (REP011-REP012) and diff against a baseline.

    Exit codes: 0 clean (after baseline subtraction), 1 un-baselined
    findings, 2 usage error (missing path, baseline flags misused).
    When ``$GITHUB_STEP_SUMMARY`` is set (CI), a findings table is
    appended to it so the hygiene job surfaces results without log
    spelunking.
    """
    import os

    from .analysis.flow import (
        analyze_paths,
        baseline_document,
        filter_baseline,
        findings_document,
        load_baseline,
        render_markdown_table,
    )
    from .analysis.flow.driver import _iter_python_files
    from .artifacts import write_document

    missing = [entry for entry in args.paths if not Path(entry).exists()]
    if missing:
        for entry in missing:
            print(f"repro analyze: no such path: {entry}", file=sys.stderr)
        return 2

    findings = analyze_paths(args.paths)
    files = sum(1 for _ in _iter_python_files(args.paths))

    if args.update_baseline:
        if not args.baseline:
            print(
                "repro analyze: --update-baseline requires --baseline",
                file=sys.stderr,
            )
            return 2
        write_document(Path(args.baseline), baseline_document(findings))
        print(
            f"baselined {len(findings)} finding(s) -> {args.baseline}"
        )
        return 0

    suppressed = 0
    if args.baseline:
        findings, suppressed = filter_baseline(
            findings, load_baseline(args.baseline)
        )

    for finding in findings:
        print(finding)
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(
        f"repro analyze: {files} file(s), {status}"
        + (f", {suppressed} baselined" if suppressed else "")
    )

    if args.json:
        write_document(
            Path(args.json),
            findings_document(findings, files=files, suppressed=suppressed),
        )
        print(f"wrote {args.json}")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write("## repro analyze\n\n")
            handle.write(render_markdown_table(findings))
    return 1 if findings else 0


def _command_table1(args) -> int:
    print(render_table1(table1(d=args.dims), d=args.dims))
    return 0


def _command_table2(args) -> int:
    print(render_table2(table2(d=args.dims)))
    return 0


def _command_figure1(args) -> int:
    print(render_figure1(figure1_series(d=args.dims)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic Data Cube reproduction - cube management CLI",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="build a cube from CSV or .npy data")
    build.add_argument("source", help="CSV of coord_1..coord_d,value rows or a .npy array")
    build.add_argument("cube", help="output cube file (.npz)")
    build.add_argument("--method", default="ddc", choices=method_names())
    build.add_argument("--dims", type=int, default=2, help="dimensions (CSV input)")
    build.add_argument("--float", action="store_true", help="use float64 measures")
    build.set_defaults(handler=_command_build)

    query = commands.add_parser("query", help="run a range-sum or prefix query")
    query.add_argument("cube")
    query.add_argument("--low", type=int, nargs="+", required=True)
    query.add_argument("--high", type=int, nargs="+", default=None)
    query.set_defaults(handler=_command_query)

    update = commands.add_parser("update", help="apply a point update in place")
    update.add_argument("cube")
    update.add_argument("--cell", type=int, nargs="+", required=True)
    update.add_argument("--delta", type=float, required=True)
    update.set_defaults(handler=_command_update)

    info = commands.add_parser("info", help="describe a cube file")
    info.add_argument("cube")
    info.set_defaults(handler=_command_info)

    audit = commands.add_parser(
        "audit", help="deep-check every structural invariant of a cube file"
    )
    audit.add_argument("cube")
    audit.set_defaults(handler=_command_audit)

    serve_stats = commands.add_parser(
        "serve-stats",
        help="replay a serving workload and print shard/cache statistics",
    )
    metrics = commands.add_parser(
        "metrics",
        help="replay a serving workload and dump the metrics registry",
    )
    trace = commands.add_parser(
        "trace",
        help="replay a serving workload and print the slowest span trees",
    )
    top = commands.add_parser(
        "top",
        help="live serving dashboard: replay, harvest worker metrics, "
        "render request/cache/worker tables and the SLO verdict",
    )
    for sub in (serve_stats, metrics, trace, top):
        sub.add_argument("--method", default="ddc", choices=method_names())
        sub.add_argument(
            "--shape", type=int, nargs="+", default=[256, 256], help="cube shape"
        )
        sub.add_argument("--shards", type=int, default=4, help="shard count")
        sub.add_argument(
            "--workers",
            type=int,
            default=0,
            help="worker processes (process executor)",
        )
        sub.add_argument(
            "--executor",
            default=None,
            choices=("serial", "process"),
            help="executor kind; 'process' serves shards from "
            "shared-memory slabs via a worker-process pool "
            "(default: serial)",
        )
        sub.add_argument(
            "--mix", type=float, default=0.9, help="fraction of events that read"
        )
        sub.add_argument(
            "--locality", default="zipf", choices=("uniform", "zipf")
        )
        sub.add_argument(
            "--events", type=int, default=500, help="stream length"
        )
        sub.add_argument(
            "--cache", type=int, default=1024, help="result-cache capacity"
        )
        sub.add_argument("--seed", type=int, default=0)
    serve_stats.set_defaults(handler=_command_serve_stats)
    metrics.add_argument(
        "--format",
        default="prom",
        choices=("prom", "json"),
        help="Prometheus text exposition or the equivalent JSON export",
    )
    metrics.set_defaults(handler=_command_metrics)
    trace.add_argument(
        "--slowest", type=int, default=3, help="span trees to print"
    )
    trace.add_argument(
        "--sample-every",
        type=int,
        default=1,
        dest="sample_every",
        help="head-sample every Nth trace (1 = trace everything)",
    )
    trace.add_argument(
        "--slow-ms",
        type=float,
        default=0.0,
        dest="slow_ms",
        help="slow-query log latency threshold in milliseconds",
    )
    trace.add_argument(
        "--chrome",
        default=None,
        help="also write the finished traces as a chrome://tracing / "
        "Perfetto JSON document",
    )
    trace.set_defaults(handler=_command_trace)
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between dashboard frames",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=5,
        help="frames to render before exiting",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render exactly one frame and exit (CI smoke mode)",
    )
    top.set_defaults(handler=_command_top)

    serve = commands.add_parser(
        "serve",
        help="serve a cube over HTTP: /query /update /metrics /healthz "
        "with admission control",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8734, help="0 picks an ephemeral port"
    )
    serve.add_argument(
        "--method",
        default="vector",
        choices=method_names(),
        help="shard structure (default vector: the layout the serve "
        "benchmarks measure; ddc is the paper's pointer structure)",
    )
    serve.add_argument(
        "--shape", type=int, nargs="+", default=[64, 64], help="cube shape"
    )
    serve.add_argument("--shards", type=int, default=4, help="shard count")
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (process executor)",
    )
    serve.add_argument(
        "--executor",
        default=None,
        choices=("serial", "process"),
        help="executor kind (default: serial)",
    )
    serve.add_argument(
        "--cache", type=int, default=1024, help="result-cache capacity"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--tenant-rate",
        type=float,
        default=0.0,
        dest="tenant_rate",
        help="tokens/second per tenant (0 disables throttling)",
    )
    serve.add_argument(
        "--tenant-burst", type=int, default=8, dest="tenant_burst"
    )
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=64,
        dest="max_concurrency",
        help="demand counted as full pressure",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        dest="max_queue",
        help="demand allowed beyond --max-concurrency (beyond: 503)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="stop after this many seconds (0 = run until signalled)",
    )
    serve.set_defaults(handler=_command_serve)

    analyze = commands.add_parser(
        "analyze",
        help="run the flow analyses (REP011-REP012) over source "
        "trees and diff against a committed baseline",
    )
    analyze.add_argument(
        "paths", nargs="+", help="files or directories to analyze"
    )
    analyze.add_argument(
        "--baseline",
        default=None,
        help="accepted-findings JSON (repro.artifacts schema); matching "
        "findings are subtracted before the exit code is decided",
    )
    analyze.add_argument(
        "--update-baseline",
        action="store_true",
        dest="update_baseline",
        help="rewrite --baseline with the current findings and exit 0",
    )
    analyze.add_argument(
        "--json",
        default=None,
        help="also write the un-baselined findings as a JSON document",
    )
    analyze.set_defaults(handler=_command_analyze)

    for name, handler in (
        ("table1", _command_table1),
        ("table2", _command_table2),
        ("figure1", _command_figure1),
    ):
        artifact = commands.add_parser(name, help=f"print the paper's {name}")
        artifact.add_argument(
            "--dims", type=int, default=8 if name != "table2" else 2
        )
        artifact.set_defaults(handler=handler)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output piped into a consumer that closed early (e.g. `head`).
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
