"""Workloads against ``python -m repro serve`` (a dashboard client's and
an operator's view).

The load generator is one thread over ``min(nproc, 4)`` keep-alive raw
sockets speaking JSON.  Closed loop: a connection sends its next
request when the previous answer is in.  Open loop: arrivals are due at
a fixed rate; one that finds no free connection waits in the
generator's queue, and every latency is timed from the due time.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time

import numpy as np

from repro.engine import ShardedEngine
from repro.engine.resilience import ResiliencePolicy
from repro.obs import Observability
from repro.serve.wire import (
    codec_for,
    decode_query,
    decode_update,
    query_response,
    update_response,
)

import probe
from inputs import READ, WRITE, Inputs
from oracle import DenseOracle, Tally
from spec import MIN_ROUNDS, PER_LAYER, Workload
from tracer import Tracer, median

_clock = time.perf_counter
_ns = time.perf_counter_ns
_JSON = "application/json"
#: The generator sleeps in ``select`` until this long before an arrival
#: is due, then spins.
_SPIN_S = 0.001


class Server:
    """``repro serve`` as a child process on an ephemeral port."""

    def __init__(self, workload: Workload, seed: int) -> None:
        build = workload.build
        command = [
            sys.executable, "-m", "repro", "serve",
            "--shape", *map(str, workload.shape),
            "--method", build["method"],
            "--shards", str(build["shards"]),
            "--seed", str(seed),
            "--port", "0",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(probe.SRC), env.get("PYTHONPATH")))
        )
        self.process = subprocess.Popen(
            command, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.sched_setaffinity(0, probe.PROGRAM_CPUS),
        )
        self.pid = self.process.pid
        seen = []
        try:
            for line in self.process.stdout:
                seen.append(line)
                if line.startswith("listening on"):
                    self.port = int(line.rsplit(":", 1)[1])
                    return
            raise RuntimeError("repro serve exited before listening:\n" + "".join(seen))
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """SIGTERM (the server drains), then SIGKILL if it lingers."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()
        self.process.stdout.close()


class Connection:
    __slots__ = ("sock", "buffer", "request", "freed_at")

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.request = -1
        self.freed_at = 0.0

    def exchange(self, request: bytes) -> bytes:
        """One blocking round trip."""
        self.sock.sendall(request)
        buffer = b""
        while True:
            data = self.sock.recv(1 << 20)
            if not data:
                raise ConnectionError("server closed the connection")
            buffer += data
            total = _complete(buffer)
            if total is not None:
                return buffer[:total]

    def close(self) -> None:
        self.sock.close()


def _complete(buffer: bytes) -> int | None:
    """Length of the first whole response in ``buffer``, if it is there."""
    head = buffer.find(b"\r\n\r\n")
    if head < 0:
        return None
    at = buffer.find(b"Content-Length: ")
    length = int(buffer[at + 16 : buffer.find(b"\r\n", at)])
    total = head + 4 + length
    return total if len(buffer) >= total else None


def _post(path: str, document: dict) -> bytes:
    body = json.dumps(document, separators=(",", ":")).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: {_JSON}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


def encode_call(kind: int, args: tuple) -> bytes:
    if kind == WRITE:
        cell, delta = args
        return _post("/update", {"cell": list(cell), "delta": delta})
    low, high = args
    return _post("/query", {"op": "range_sum", "low": list(low), "high": list(high)})


def _decode(raw: bytes) -> tuple[int, dict]:
    return int(raw[9:12]), json.loads(raw[raw.find(b"\r\n\r\n") + 4 :])


def scrape(connection: Connection) -> dict:
    raw = connection.exchange(b"GET /metrics?format=json HTTP/1.1\r\nHost: bench\r\n\r\n")
    status, document = _decode(raw)
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return document


def drive(connections, requests, is_write, due=None):
    """Send every request, in order, over the free connections.

    Returns per request: send and completion times, the raw response,
    whether a read overlapped no write (so its answer is determined),
    and — open loop — how long it waited for a free connection and how
    late the generator itself was.
    """
    n = len(requests)
    sent, done = [0.0] * n, [0.0] * n
    raw = [b""] * n
    clean = [True] * n
    waited, late = [0.0] * n, [0.0] * n
    free = list(connections)
    busy: dict = {}
    reads_in_flight: set[int] = set()
    writes_in_flight = 0
    upcoming = completed = 0
    origin = _clock()
    for connection in free:
        connection.freed_at = origin
    while completed < n:
        now = _clock()
        while free and upcoming < n and (due is None or origin + due[upcoming] <= now):
            connection = free.pop(0)  # the one free the longest
            i = upcoming
            upcoming += 1
            if due is not None:
                # Late with a connection free is the generator's own
                # lateness; otherwise the arrival queued for a connection.
                due_at = origin + due[i]
                if connection.freed_at <= due_at:
                    late[i] = now - due_at
                else:
                    waited[i] = now - due_at
            if is_write[i]:
                writes_in_flight += 1
                for read in reads_in_flight:
                    clean[read] = False
            else:
                clean[i] = writes_in_flight == 0
                reads_in_flight.add(i)
            connection.request = i
            busy[connection.sock] = connection
            sent[i] = now
            connection.sock.sendall(requests[i])
            now = _clock()
        # Sleep until an answer is in or the next arrival is nearly due,
        # then poll for both without sleeping until it is.
        target = None
        if due is not None and free and upcoming < n:
            target = origin + due[upcoming]
        sockets = list(busy)
        if target is None:
            readable = select.select(sockets, (), ())[0]
        else:
            doze = max(0.0, target - _clock() - _SPIN_S)
            readable = select.select(sockets, (), (), doze)[0] if sockets else time.sleep(doze)
            while not readable and _clock() < target:
                readable = sockets and select.select(sockets, (), (), 0)[0]
        if not readable:
            continue
        for sock in readable:
            connection = busy[sock]
            data = sock.recv(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection")
            connection.buffer += data
            total = _complete(connection.buffer)
            if total is None:
                continue
            now = _clock()
            i = connection.request
            done[i] = now
            raw[i] = connection.buffer[:total]
            connection.buffer = b""
            if is_write[i]:
                writes_in_flight -= 1
            else:
                reads_in_flight.discard(i)
            del busy[sock]
            connection.freed_at = now
            free.append(connection)
            completed += 1
    return {
        "origin": origin, "sent": sent, "done": done, "raw": raw,
        "clean": clean, "waited": waited, "late": late,
    }


class Replay:
    """Checks a driven round against the oracle, in send order.

    A *clean* read was in flight with no write, so every earlier write
    had completed and no later one had started: its answer is the oracle
    after exactly the writes sent before it.  Reads that overlapped a
    write are counted unchecked; the quiesced sweep covers the end state.
    """

    def __init__(self, oracle: DenseOracle, tally: Tally) -> None:
        self.oracle = oracle
        self.tally = tally
        self.reads = 0
        self.unchecked = 0

    def __call__(self, calls, raw, clean) -> None:
        oracle, tally = self.oracle, self.tally
        for (kind, args), response, determined in zip(calls, raw, clean):
            tally.attempt(1)
            status, body = _decode(response)
            if status != 200:
                tally.fail(1, f"HTTP {status}: {body}")
                continue
            if kind == WRITE:
                oracle.add(*args)
                continue
            self.reads += 1
            if body.get("partial") or body.get("shed"):
                tally.fail(1, f"degraded answer: {body}")
            elif determined:
                tally.check(body["value"], oracle.range_sum(*args), f"range {args}")
            else:
                self.unchecked += 1

    def sweep(self, connection: Connection, ranges) -> None:
        """Quiesced: every pool range, one at a time."""
        for low, high in ranges:
            self.tally.attempt(1)
            status, body = _decode(connection.exchange(encode_call(READ, (low, high))))
            if status != 200:
                self.tally.fail(1, f"HTTP {status}: {body}")
            else:
                self.tally.check(body["value"], self.oracle.range_sum(low, high), "sweep")


def set_up(workload: Workload, seed: int, oracle: DenseOracle, tally: Tally):
    """Spawn the server and get one checked answer: ``(server, seconds)``."""
    top = tuple(n - 1 for n in workload.shape)
    origin = (0,) * len(top)
    start = _clock()
    server = Server(workload, seed)
    try:
        connection = Connection(server.port)
        try:
            status, body = _decode(connection.exchange(encode_call(READ, (origin, top))))
        finally:
            connection.close()
        elapsed = _clock() - start
        tally.attempt(1)
        if status != 200:
            tally.fail(1, f"set-up read: HTTP {status}")
        else:
            tally.check(body["value"], oracle.total(), "set-up read")
    except BaseException:
        server.stop()
        raise
    return server, elapsed


def _run_round(workload, inputs, connections, calls):
    requests = [encode_call(kind, args) for kind, args in calls]
    is_write = [kind == WRITE for kind, _ in calls]
    due = inputs.arrivals(len(calls)).tolist() if workload.rate else None
    result = drive(connections, requests, is_write, due)
    start = (
        [result["origin"] + t for t in due] if due is not None else result["sent"]
    )
    result["latency_us"] = [(d - s) * 1e6 for d, s in zip(result["done"], start)]
    result["wall"] = max(result["done"]) - result["origin"]
    return result


def _connections(port: int) -> list[Connection]:
    return [Connection(port) for _ in range(min(os.cpu_count() or 1, 4))]


def measure_end_to_end(workload: Workload, seed: int, seconds: float, tally: Tally) -> dict:
    inputs = Inputs(workload, seed)
    oracle = DenseOracle(inputs.cube())
    setups: list[float] = []
    rounds: list[float] = []
    latency = {READ: [], WRITE: []}
    late: list[float] = []
    server = None
    connections: list[Connection] = []
    try:
        for _ in range(workload.setups):
            if server is not None:
                server.stop()
            server, elapsed = set_up(workload, seed, oracle, tally)
            setups.append(elapsed)
        connections = _connections(server.port)
        replay = Replay(oracle, tally)
        warm = inputs.warm_calls()
        result = _run_round(workload, inputs, connections, warm)
        replay(warm, result["raw"], result["clean"])
        timed = 0.0
        while timed < seconds or len(rounds) < MIN_ROUNDS:
            calls = inputs.round_calls(len(rounds))
            result = _run_round(workload, inputs, connections, calls)
            timed += result["wall"]
            rounds.append(len(calls) / result["wall"])
            kinds = np.fromiter((kind for kind, _ in calls), np.int8, len(calls))
            lat = np.asarray(result["latency_us"])
            for kind in (READ, WRITE):
                latency[kind].append(lat[kinds == kind])
            late.extend(result["late"])
            replay(calls, result["raw"], result["clean"])
        rss = probe.vm_hwm_mb(server.pid)
        replay.sweep(connections[0], inputs.pool)
    finally:
        for connection in connections:
            connection.close()
        if server is not None:
            server.stop()
    return {
        "setups": setups,
        "rounds": rounds,
        "read_us": latency[READ],
        "write_us": latency[WRITE],
        "peak_rss_mb": rss,
        "notes": {
            "round_calls": workload.round_calls,
            "ops_per_call": 1,
            "connections": len(connections),
            "loop": f"open at {workload.rate:g}/s" if workload.rate else "closed",
            "unchecked_read_share": replay.unchecked / max(1, replay.reads),
            "lateness_p99_us": float(np.percentile(late, 99)) * 1e6 if workload.rate else 0.0,
        },
    }


# ----------------------------------------------------------------------
# Per-layer pass
# ----------------------------------------------------------------------


def _serve_engine(workload: Workload, cube, obs):
    """An in-process engine built as ``repro serve`` builds its own."""
    return ShardedEngine.from_array(
        np.asarray(cube, dtype=float),
        shards=workload.build["shards"],
        method=workload.build["method"],
        workers=None,
        executor=None,
        cache_size=1024,
        obs=obs,
        resilience=ResiliencePolicy(degradation="strict"),
    )


def _histogram_p50_us(before: dict, after: dict, family: str, route: str) -> float:
    """Median of what a latency histogram gained between two scrapes
    (interpolated inside the bucket); 0.0 if the family is absent."""

    def buckets(document):
        for metric in document["metrics"]:
            if metric["name"] == family:
                for sample in metric["samples"]:
                    if sample["labels"].get("route") == route:
                        return [(b["le"], b["count"]) for b in sample["buckets"]]
        return None

    new, old = buckets(after), buckets(before)
    if new is None:
        return 0.0
    old_counts = dict(old or ())
    gained = [(le, count - old_counts.get(le, 0)) for le, count in new]
    target = gained[-1][1] / 2.0
    lower, below = 0.0, 0
    for le, running in gained:
        if running >= target and running > below:
            if le == "+Inf":
                return lower * 1e6
            upper = float(le)
            return (lower + (upper - lower) * (target - below) / (running - below)) * 1e6
        if le != "+Inf":
            lower, below = float(le), running
    return 0.0


class ServeShadow:
    """In-process copies of what a request passes through that can be
    called on their own: the wire codec and validators, and an engine
    built as the server's (kept in step by applying every write).  A
    second engine with observability off prices ``obs``."""

    def __init__(self, workload: Workload, cube) -> None:
        self.codec = codec_for(_JSON)
        self.dims = len(workload.shape)
        self.engine = _serve_engine(workload, cube, Observability())
        self.quiet_engine = _serve_engine(workload, cube, None)
        self.quiet_us: list[float] = []

    def replay(self, tracer: Tracer, root: int, op: int, kind: int, request, response, tally):
        body = request[request.find(b"\r\n\r\n") + 4 :]
        start = _ns()
        payload = self.codec.decode(body)
        parsed = decode_update(payload, self.dims) if kind else decode_query(payload, self.dims)
        tracer.record("serve.decode", start, _ns(), op, root, shadow=True)
        start = _ns()
        if kind:
            self.engine.add_many(parsed.updates)
        else:
            value = self.engine.range_sum(*parsed.ranges[0])
        tracer.record("serve.engine", start, _ns(), op, root, shadow=True)
        start = _ns()
        if kind:
            self.codec.encode(update_response(len(parsed.updates)))
        else:
            self.codec.encode(query_response([value], batch=False, coalesced=False, shed=False))
        tracer.record("serve.encode", start, _ns(), op, root, shadow=True)
        if kind:
            self.quiet_engine.add_many(parsed.updates)
            return
        start = _ns()
        self.quiet_engine.range_sum(*parsed.ranges[0])
        self.quiet_us.append((_ns() - start) / 1e3)
        if _decode(response)[1].get("value") != value:
            tally.fail(1, f"shadow engine disagrees with the server on {parsed.ranges[0]}")

    def close(self) -> None:
        self.engine.close()
        self.quiet_engine.close()


def traced_exchange(connection, calls, tracer: Tracer, shadow: ServeShadow, tally: Tally):
    """One request at a time: a root span around the round trip, then
    the shadow's decode, engine call and encode as its children."""
    raw = []
    for op, (kind, args) in enumerate(calls):
        request = encode_call(kind, args)
        start = _ns()
        response = connection.exchange(request)
        root = tracer.record("op.write" if kind else "op.read", start, _ns(), op)
        shadow.replay(tracer, root, op, kind, request, response, tally)
        raw.append(response)
    return raw


def measure_layers(workload: Workload, seed: int, tally: Tally, trace_path) -> dict:
    inputs = Inputs(workload, seed)
    cube = inputs.cube()
    warm = inputs.warm_calls()
    round0 = inputs.round_calls(0)
    head = round0[: workload.trace_calls]
    m = {name: 0.0 for name, _, _ in PER_LAYER}

    # Plain pass: warm-up, then all of round 0 as the workload drives
    # it, no tracer.
    oracle = DenseOracle(cube)
    server, _ = set_up(workload, seed, oracle, tally)
    connections: list[Connection] = []
    try:
        connections = _connections(server.port)
        replay = Replay(oracle, tally)
        result = _run_round(workload, inputs, connections, warm)
        replay(warm, result["raw"], result["clean"])
        before = scrape(connections[0])
        cpu = probe.cpu_seconds(server.pid)
        result = _run_round(workload, inputs, connections, round0)
        cpu = probe.cpu_seconds(server.pid) - cpu
        after = scrape(connections[0])
        replay(round0, result["raw"], result["clean"])
    finally:
        for connection in connections:
            connection.close()
        server.stop()
    n = len(round0)
    gained = {key: after["serve"][key] - before["serve"][key]
              for key in ("coalesce_leaders", "coalesce_followers", "shed_responses",
                          "overflow_rejected", "throttled")}
    reads = gained["coalesce_leaders"] + gained["coalesce_followers"]
    m["serve.cpu_us_per_request"] = cpu / n * 1e6
    m["serve.coalesced_share"] = gained["coalesce_followers"] / max(1, reads)
    m["serve.peak_pressure"] = after["serve"]["peak_pressure"]
    m["serve.shed_share"] = gained["shed_responses"] / n
    m["serve.rejected"] = gained["overflow_rejected"] + gained["throttled"]
    m["serve.handler_p50_us"] = _histogram_p50_us(
        before, after, "repro_serve_request_seconds", "/query"
    )
    m["serve.queue_wait_us"] = float(np.mean(result["waited"])) * 1e6
    m["loadgen.lateness_p99_us"] = (
        float(np.percentile(result["late"], 99)) * 1e6 if workload.rate else 0.0
    )
    m["loadgen.unchecked_read_share"] = replay.unchecked / max(1, replay.reads)
    plain_rate = n / result["wall"]

    # Traced pass: warm-up, then the head of round 0, over one connection.
    oracle = DenseOracle(cube)
    tracer = Tracer()
    server, _ = set_up(workload, seed, oracle, tally)
    connection = shadow = None
    try:
        connection = Connection(server.port)
        shadow = ServeShadow(workload, cube)
        replay = Replay(oracle, tally)
        raw = traced_exchange(connection, warm, Tracer(), shadow, tally)
        replay(warm, raw, [True] * len(warm))
        shadow.quiet_us.clear()
        begin = _clock()
        raw = traced_exchange(connection, head, tracer, shadow, tally)
        traced_wall = _clock() - begin
        replay(head, raw, [True] * len(head))
    finally:
        if shadow is not None:
            shadow.close()
        if connection is not None:
            connection.close()
        server.stop()
    read_ops = {span[2] for span in tracer.spans if span[3] == "op.read"}

    def over_reads(name):
        return median(
            (span[5] - span[4]) / 1e3
            for span in tracer.spans if span[3] == name and span[2] in read_ops
        )

    m["serve.decode_us"] = over_reads("serve.decode")
    m["serve.encode_us"] = over_reads("serve.encode")
    m["serve.engine_us"] = over_reads("serve.engine")
    m["serve.round_trip_us"] = over_reads("op.read")
    m["serve.edge_us"] = median(tracer.self_times_us()["op.read"])
    m["obs.read_overhead_us"] = m["serve.engine_us"] - median(shadow.quiet_us)
    m["loadgen.trace_overhead_ratio"] = (len(head) / traced_wall) / plain_rate
    tracer.write(trace_path, workload=workload.name, seed=seed, shadow_children=True)
    return m
