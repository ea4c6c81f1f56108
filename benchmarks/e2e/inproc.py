"""Workloads that hold the cube in-process (a library caller's view).

``measure_end_to_end`` times calls into the public API with tracing off;
``measure_layers`` runs round 0 once plain (counters, CPU, hit/miss
split) and its head once traced, with the layer calls repeated on
benchmark-owned shadow structures (see ``tracer.py``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

from repro.engine import MISS, EpochLruCache, ShardedEngine, is_partial
from repro.methods import build_method, method_class
from repro.methods.crossover import reset_calibration

import probe
from inputs import READ, WRITE, Inputs
from oracle import DenseOracle, Tally
from spec import BY_NAME, MIN_ROUNDS, PER_LAYER, Workload
from tracer import Tracer, median

_ns = time.perf_counter_ns

#: Each of the ``workload.setups`` samples of ``setup_s`` is taken in a
#: fresh child (``run.py --setup-sample``): set-ups repeated in one
#: process are not independent.  The crossover probe in
#: ``engine_batch_3d``'s runs strided sums over a padded 256^3 array
#: whose time depends on where the allocator puts it; in-process repeats
#: re-used two heap layouts in turn, alternated 0.9 s / 1.5 s, and their
#: median flipped between the two from run to run.
_SAMPLE_TIMEOUT_S = 30

#: Memory a sample writes and frees right before its timed set-up (more
#: than any workload's peak).  The sandbox is a VM whose host takes free
#: pages back after a second or two and maps them in again on first
#: touch: ``engine_batch_3d``'s set-up took 2.5 s when the machine had
#: been idle for 3 s, 1.1 s straight after another process had exited,
#: and either right after the other.  Pages touched a moment ago are
#: still mapped, so the sample times the program, not the host.
_PRETOUCH_BYTES = 768 << 20


class Program:
    """The structure under test, built the way the workload says."""

    def __init__(self, workload: Workload, cube: np.ndarray) -> None:
        build = dict(workload.build)
        method = build.pop("method")
        self.engine = None
        if workload.kind == "method":
            self.target = build_method(method, cube)
        else:
            if build["executor"] == "process":
                build["workers"] = max(1, (os.cpu_count() or 1) - 1)
            self.engine = self.target = ShardedEngine.from_array(
                cube, method=method, **build
            )
        # The benchmark process keeps the first CPU; worker processes get
        # the rest.  Left to the scheduler a worker lands now beside the
        # parent (its wake-up preempts the shipping write: write p99
        # 600 us, read p99 55 us), now on another CPU (reads spin on the
        # seqlock while it applies: the other way round), run by run.
        for pid in self.worker_pids():
            os.sched_setaffinity(pid, probe.PROGRAM_CPUS)
        batched = workload.batch > 1
        self.read = self.target.range_sum_many if batched else self.target.range_sum
        self.write = self.target.add_many if batched else self.target.add

    def counters(self):
        if self.engine is not None:
            return self.engine.aggregate_stats()
        return self.target.stats.snapshot()

    def worker_pids(self) -> list[int]:
        info = self.engine.pool_info() if self.engine is not None else None
        return [lane["pid"] for lane in info["lanes"] if lane["pid"]] if info else []

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()


def _items(workload: Workload, args: tuple) -> list:
    """The ops of one call: a batch call's list, or the scalar call itself."""
    return args[0] if workload.batch > 1 else [args]


def _answers(workload: Workload, got) -> list:
    """One answer per op of a read call."""
    return got if workload.batch > 1 else [got]


def set_up(workload: Workload, cube, first_read, oracle: DenseOracle, tally: Tally):
    """Build, then answer one read and check it: ``(program, build
    seconds, first-call seconds)``.  Every set-up pays the one-shot
    batch-crossover probe, as a fresh process would."""
    reset_calibration()
    start = time.perf_counter()
    program = Program(workload, cube)
    built = time.perf_counter()
    try:
        got = program.read(*first_read)
        answered = time.perf_counter()
        ranges = _items(workload, first_read)
        values = _answers(workload, got)
        tally.attempt(len(ranges))
        for (low, high), value in zip(ranges, values):
            tally.check(value, oracle.range_sum(low, high), "set-up read")
    except BaseException:
        program.close()
        raise
    return program, built - start, answered - built


def sample_setup(workload: Workload, seed: int, tally: Tally) -> float:
    """One set-up and nothing else, timed: what ``run.py --setup-sample``
    runs in a process of its own."""
    inputs = Inputs(workload, seed)
    cube = inputs.cube()
    first_read = next(args for kind, args in inputs.warm_calls() if kind == READ)
    oracle = DenseOracle(cube)
    np.ones(_PRETOUCH_BYTES // 8, dtype=np.int64)  # written, then dropped at once
    program, build_s, first_s = set_up(workload, cube, first_read, oracle, tally)
    program.close()
    return build_s + first_s


def fresh_setup(workload: Workload, seed: int, tally: Tally) -> float:
    """``sample_setup`` in a fresh child; its ops join ``tally``."""
    command = [
        sys.executable, str(probe.HERE / "run.py"), "--setup-sample",
        "--workload", workload.name, "--seed", str(seed),
        "--allow-env",  # this run was let through already
    ]
    if workload != BY_NAME[workload.name]:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=_SAMPLE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample exited {done.returncode}: {done.stderr[-400:]}")
    sample = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    tally.attempt(sample["attempted"])
    tally.checked += sample["checked"]
    if sample["failed"]:
        tally.fail(sample["failed"], f"set-up sample: {sample['first_failure']}")
    return sample["setup_s"]


def timed_loop(program: Program, calls: list[tuple]):
    """Issue ``calls`` back to back; per-call latency in ns, results kept
    for the off-clock replay.  A call that raises is kept as its
    exception and counted failed there."""
    fns = (program.read, program.write)
    out = [None] * len(calls)
    latency = [0] * len(calls)
    begin = _ns()
    for i, (kind, args) in enumerate(calls):
        start = _ns()
        try:
            out[i] = fns[kind](*args)
        except Exception as exc:  # noqa: BLE001 - the loop must keep going
            out[i] = exc
        latency[i] = _ns() - start
    return out, latency, (_ns() - begin) / 1e9


class Replay:
    """Off-clock dense-numpy replay: every write applied in order,
    every ``check_every``-th read compared."""

    def __init__(self, workload: Workload, oracle: DenseOracle, tally: Tally) -> None:
        self.workload = workload
        self.oracle = oracle
        self.tally = tally
        self._reads = 0

    def __call__(self, calls: list[tuple], out: list) -> None:
        workload, oracle, tally = self.workload, self.oracle, self.tally
        for (kind, args), got in zip(calls, out):
            items = _items(workload, args)
            tally.attempt(len(items))
            if isinstance(got, BaseException):
                tally.fail(len(items), f"call raised {got!r}")
                continue
            if kind == WRITE:
                for cell, delta in items:
                    oracle.add(cell, delta)
                continue
            for (low, high), value in zip(items, _answers(workload, got)):
                if is_partial(value):
                    tally.fail(1, f"partial answer for {low}..{high}")
                    continue
                self._reads += 1
                if self._reads % workload.check_every == 0:
                    tally.check(value, oracle.range_sum(low, high), f"range {low}..{high}")


def measure_end_to_end(workload: Workload, seed: int, seconds: float, tally: Tally) -> dict:
    inputs = Inputs(workload, seed)
    cube = inputs.cube()
    oracle = DenseOracle(cube)
    warm = inputs.warm_calls()
    first_read = next(args for kind, args in warm if kind == READ)
    setups = [fresh_setup(workload, seed, tally) for _ in range(workload.setups)]
    rounds: list[float] = []
    latency = {READ: [], WRITE: []}
    program = None
    try:
        program, _, _ = set_up(workload, cube, first_read, oracle, tally)
        replay = Replay(workload, oracle, tally)
        out, _, _ = timed_loop(program, warm)
        replay(warm, out)
        timed = 0.0
        while timed < seconds or len(rounds) < MIN_ROUNDS:
            calls = inputs.round_calls(len(rounds))
            out, lat, wall = timed_loop(program, calls)
            timed += wall
            rounds.append(len(calls) * workload.batch / wall)
            kinds = np.fromiter((kind for kind, _ in calls), np.int8, len(calls))
            lat = np.asarray(lat) / 1e3
            for kind in (READ, WRITE):
                latency[kind].append(lat[kinds == kind])
            replay(calls, out)
        rss = probe.vm_hwm_mb() + sum(probe.vm_hwm_mb(pid) for pid in program.worker_pids())
    finally:
        if program is not None:
            program.close()
    return {
        "setups": setups,
        "rounds": rounds,
        "read_us": latency[READ],
        "write_us": latency[WRITE],
        "peak_rss_mb": rss,
        "notes": {"round_calls": workload.round_calls, "ops_per_call": workload.batch},
    }


# ----------------------------------------------------------------------
# Per-layer pass
# ----------------------------------------------------------------------


class EngineShadow:
    """Benchmark-owned copies of the engine's layers: a result cache, the
    shard plan, and one structure per shard built from the same slabs.

    A process-mode engine has no in-process structure to copy; its reads
    are repeated on ``engine.shards[i]`` (the slab replicas — a read
    changes nothing) and its writes have no shadow.
    """

    def __init__(self, workload: Workload, program: Program, cube: np.ndarray) -> None:
        engine = program.engine
        self.workload = workload
        self.plan = engine.plan
        self.cache = EpochLruCache(engine.cache_info()["capacity"])
        self.epochs = [0] * self.plan.count
        self.owns_shards = engine.executor_kind != "process"
        if self.owns_shards:
            cls = method_class(engine.method_name)
            self.shards = [
                cls.from_array(cube[self.plan.slab(i)]) for i in range(self.plan.count)
            ]
        else:
            self.shards = engine.shards
        self.subqueries = 0

    def replay(self, tracer: Tracer, root: int, op: int, kind: int, args, got, tally: Tally):
        items = _items(self.workload, args)
        if kind == WRITE:
            self._write(tracer, root, op, items)
        elif isinstance(got, BaseException):
            self._read(tracer, root, op, items, [got] * len(items), tally)
        else:
            self._read(tracer, root, op, items, _answers(self.workload, got), tally)

    def _write(self, tracer, root, op, items) -> None:
        plan = self.plan
        grouped: dict[int, list] = {}
        for cell, delta in items:
            index = plan.owner(cell)
            grouped.setdefault(index, []).append((plan.to_local(index, cell), delta))
        for index, group in grouped.items():
            self.epochs[index] += 1
            if not self.owns_shards:
                continue
            shard = self.shards[index]
            start = _ns()
            if len(group) == 1:
                shard.add(*group[0])
            else:
                shard.add_many(group)
            tracer.record("methods.update", start, _ns(), op, root, shadow=True, shard=index)

    def _read(self, tracer, root, op, items, values, tally) -> None:
        epochs = tuple(self.epochs)
        start = _ns()
        missing = [key for key in items if self.cache.get(key, self.epochs) is MISS]
        tracer.record("engine.cache_probe", start, _ns(), op, root, shadow=True)
        if not missing:
            return
        missing = list(dict.fromkeys(missing))
        start = _ns()
        parts = [list(self.plan.decompose(low, high)) for low, high in missing]
        tracer.record("engine.decompose", start, _ns(), op, root, shadow=True)
        self.subqueries += sum(len(p) for p in parts)
        per_shard: dict[int, list] = {}
        for key_index, key_parts in enumerate(parts):
            for index, low, high in key_parts:
                per_shard.setdefault(index, []).append((key_index, low, high))
        totals = [0] * len(missing)
        for index in sorted(per_shard):
            queries = [(low, high) for _, low, high in per_shard[index]]
            shard = self.shards[index]
            start = _ns()
            if len(queries) == 1:
                answers = [shard.range_sum(*queries[0])]
            else:
                answers = shard.range_sum_many(queries)
            tracer.record(
                "methods.query", start, _ns(), op, root,
                shadow=True, shard=index, queries=len(queries),
            )
            for (key_index, _, _), answer in zip(per_shard[index], answers):
                totals[key_index] += answer
        start = _ns()
        for key, key_parts, total in zip(missing, parts, totals):
            self.cache.put(key, total, [p[0] for p in key_parts], epochs)
        tracer.record("engine.cache_probe", start, _ns(), op, root, shadow=True)
        # The shadow answers the same question as the engine did.
        answered = dict(zip(items, values))
        for key, total in zip(missing, totals):
            if not isinstance(answered[key], BaseException) and answered[key] != total:
                tally.fail(1, f"shadow shards disagree with the engine on {key}")


def layer_loop(program: Program, calls, tracer=None, shadow=None, tally=None):
    """Round-0 calls with a hit/miss flag per read; with a tracer also a
    root span per op, OpCounter deltas on it, and the shadow replay."""
    fns = (program.read, program.write)
    stats = program.engine.stats if program.engine is not None else None
    pooled = program.engine is not None and program.engine.process_pool is not None
    out = [None] * len(calls)
    latency = [0] * len(calls)
    hit = [False] * len(calls)
    counts = {READ: [0, 0, 0], WRITE: [0, 0, 0]}  # cell reads, cell writes, node visits
    buffered_peak = 0
    begin = _ns()
    for i, (kind, args) in enumerate(calls):
        if tracer is not None:
            before = program.counters()
        misses = stats.cache_misses if stats is not None else 0
        start = _ns()
        try:
            out[i] = fns[kind](*args)
        except Exception as exc:  # noqa: BLE001 - counted failed in the replay
            out[i] = exc
        end = _ns()
        latency[i] = end - start
        hit[i] = stats is not None and kind == READ and stats.cache_misses == misses
        if tracer is not None:
            delta = program.counters().diff(before)
            tally_row = counts[kind]
            tally_row[0] += delta.cell_reads
            tally_row[1] += delta.cell_writes
            tally_row[2] += delta.node_visits
            root = tracer.record(
                "op.write" if kind else "op.read", start, end, i,
                cell_reads=delta.cell_reads, cell_writes=delta.cell_writes,
                node_visits=delta.node_visits, cache_hit=hit[i],
            )
            if shadow is not None:
                shadow.replay(tracer, root, i, kind, args, out[i], tally)
        elif pooled and i % 256 == 0:
            buffered_peak = max(buffered_peak, program.engine.pool_info()["buffered_deltas"])
    wall = (_ns() - begin) / 1e9
    return out, latency, hit, wall, counts, buffered_peak


def measure_layers(workload: Workload, seed: int, tally: Tally, trace_path) -> dict:
    inputs = Inputs(workload, seed)
    cube = inputs.cube()
    warm = inputs.warm_calls()
    first_read = next(args for kind, args in warm if kind == READ)
    round0 = inputs.round_calls(0)
    head = round0[: workload.trace_calls]
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    is_engine = workload.kind == "engine"

    # Plain pass: all of round 0 on a fresh build, no tracer.
    oracle = DenseOracle(cube)
    program, build_s, first_s = set_up(workload, cube, first_read, oracle, tally)
    try:
        m["methods.build_s"] = build_s
        m["methods.memory_cells_per_cell"] = program.target.memory_cells() / cube.size
        replay = Replay(workload, oracle, tally)
        replay(warm, timed_loop(program, warm)[0])
        pids = program.worker_pids()
        info = program.engine.cache_info() if is_engine else None
        worker_cpu = sum(probe.cpu_seconds(pid) for pid in pids)
        parent_cpu = time.process_time()
        out, lat, hit, plain_wall, _, buffered_peak = layer_loop(program, round0)
        if pids:
            program.engine.process_pool.flush()  # shipped deltas are work too
            m["engine.process.parent_cpu_s"] = time.process_time() - parent_cpu
            m["engine.process.worker_cpu_s"] = (
                sum(probe.cpu_seconds(pid) for pid in pids) - worker_cpu
            )
            m["engine.process.buffered_deltas_peak"] = buffered_peak
            m["engine.process.restarts"] = program.engine.pool_info()["restarts"]
        reads = [i for i, (kind, _) in enumerate(round0) if kind == READ]
        writes = len(round0) - len(reads)
        if is_engine:
            after = program.engine.cache_info()
            lookups = after["hits"] + after["misses"] - info["hits"] - info["misses"]
            m["engine.cache_hit_rate"] = (after["hits"] - info["hits"]) / lookups
            m["engine.invalidations_per_write"] = (
                after["invalidations"] - info["invalidations"]
            ) / (writes * workload.batch)
            m["engine.evictions"] = after["evictions"] - info["evictions"]
            m["engine.hit_us"] = median(lat[i] / 1e3 for i in reads if hit[i])
            m["engine.miss_us"] = median(lat[i] / 1e3 for i in reads if not hit[i])
            resilience = program.engine.resilience_info()
            open_breakers = sum(
                row["state"] != "closed" for row in (resilience or {}).get("breakers", ())
            )
            partial = sum(
                is_partial(v) for i in reads
                for v in _answers(workload, out[i])
            )
            m["engine.resilience.degraded"] = open_breakers + partial
        if workload.batch > 1:
            # The first batch call ran the one-shot crossover probe.
            steady = median(lat[i] for i in reads) / 1e9
            m["methods.calibration_s"] = max(0.0, first_s - steady)
        replay(round0, out)
    finally:
        program.close()

    # Traced pass: the head of round 0 on another fresh build, warmed up
    # the same way (through the shadow too, which must see every write).
    oracle = DenseOracle(cube)
    tracer = Tracer()
    program, _, _ = set_up(workload, cube, first_read, oracle, tally)
    try:
        shadow = EngineShadow(workload, program, cube) if is_engine else None
        replay = Replay(workload, oracle, tally)
        replay(warm, layer_loop(program, warm, Tracer(), shadow, tally)[0])
        if shadow is not None:
            shadow.subqueries = 0
        out, lat, hit, traced_wall, counts, _ = layer_loop(program, head, tracer, shadow, tally)
        replay(head, out)
    finally:
        program.close()
    read_ops = sum(kind == READ for kind, _ in head) * workload.batch
    write_ops = (len(head) - read_ops // workload.batch) * workload.batch
    m["core.cell_reads_per_query"] = counts[READ][0] / read_ops
    m["core.node_visits_per_query"] = counts[READ][2] / read_ops
    m["core.cell_writes_per_update"] = counts[WRITE][1] / write_ops
    selves = tracer.self_times_us()
    if is_engine:
        m["methods.query_us"] = median(tracer.child_totals_us("methods.query"))
        m["methods.update_us"] = median(tracer.child_totals_us("methods.update"))
        m["engine.cache_probe_us"] = median(tracer.child_totals_us("engine.cache_probe"))
        m["engine.decompose_us"] = median(tracer.child_totals_us("engine.decompose"))
        m["engine.subqueries_per_read"] = shadow.subqueries / read_ops
        m["engine.read_self_us"] = median(selves["op.read"])
        m["engine.write_self_us"] = median(selves["op.write"])
    else:  # the call into the method is the whole op
        m["methods.query_us"] = median(selves["op.read"])
        m["methods.update_us"] = median(selves["op.write"])
    plain_rate = len(round0) / plain_wall
    m["loadgen.trace_overhead_ratio"] = (len(head) / traced_wall) / plain_rate
    tracer.write(trace_path, workload=workload.name, seed=seed, shadow_children=True)
    return m
