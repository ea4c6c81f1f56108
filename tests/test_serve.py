"""The HTTP serving front-end: wire format, admission, errors, the
engine turn, and graceful shutdown.

Every async scenario runs through ``asyncio.run`` inside a plain sync
test (no pytest-asyncio dependency).  Server correctness is checked
end-to-end over real sockets against locally computed range sums.  The
server runs every engine call on its event loop, so the tests that need
a request to wait hold the engine turn themselves
(``await server.gate.acquire()``), and the chunking tests use an engine
double that records its calls and can sleep in each batch read.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.engine import ShardedEngine
from repro.exceptions import (
    BadRequestError,
    ConfigurationError,
    UnsupportedMediaTypeError,
)
from repro.obs import ManualClock, Observability, engine_watchdog, evaluate_health
from repro.serve import (
    AdmissionPolicy,
    CubeServer,
    ServeClient,
    TokenBucket,
    available_codecs,
    codec_for,
    decode_query,
    decode_update,
)
from repro.serve.server import _CHUNK, MAX_BODY_BYTES, MAX_HEAD_BYTES
from repro.serve.wire import MAX_BATCH
from repro.workloads import clustered

SHAPE = (24, 24)


def make_engine(**kwargs):
    data = clustered(SHAPE, seed=3)
    return ShardedEngine.from_array(data, shards=4, **kwargs), data


def run(coro):
    return asyncio.run(coro)


async def serving(engine, policy=None, **kwargs):
    server = CubeServer(engine, policy=policy, **kwargs)
    await server.start()
    return server


class CountingEngine(ShardedEngine):
    """Records each call in order and the thread it ran on; each
    ``range_sum_many`` sleeps ``read_delay`` seconds and then runs
    ``on_read`` if set."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls: list[str] = []
        self.threads: dict[str, list[str]] = {}
        self.read_delay = 0.0
        self.on_read = None

    def _enter(self, op):
        self.calls.append(op)
        self.threads.setdefault(op, []).append(threading.current_thread().name)

    def range_sum(self, low, high):
        self._enter("range_sum")
        return super().range_sum(low, high)

    def range_sum_many(self, ranges):
        self._enter("range_sum_many")
        time.sleep(self.read_delay)
        if self.on_read is not None:
            self.on_read()
        return super().range_sum_many(ranges)

    def add_many(self, updates):
        self._enter("add_many")
        return super().add_many(updates)

    def harvest_worker_metrics(self):
        self._enter("healthz")
        return super().harvest_worker_metrics()


def counting_engine():
    return CountingEngine.from_array(clustered(SHAPE, seed=3), shards=4)


def covering_ranges(count):
    """``count`` ranges that all contain cell (5, 5)."""
    return [((0, 0), (5 + i % 19, 5 + (i // 19) % 19)) for i in range(count)]


def range_total(data, low, high):
    return int(data[low[0] : high[0] + 1, low[1] : high[1] + 1].sum())


async def until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        await asyncio.sleep(0.001)


async def send_raw(port, payload: bytes):
    """Open a bare connection and send ``payload`` — no client retries."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    return reader, writer


def raw_post(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


def raw_query(low, high) -> bytes:
    document = {"op": "range_sum", "low": list(low), "high": list(high)}
    return raw_post("/query", json.dumps(document).encode())


async def read_response(reader):
    """One response off a raw connection: ``(status, headers, body)``."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 5.0)
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name:
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return int(lines[0].split(" ")[1]), headers, body


# ----------------------------------------------------------------------
# Wire validation
# ----------------------------------------------------------------------


class TestWire:
    def test_codec_negotiation(self):
        assert codec_for(None).name == "json"
        assert codec_for("*/*").name == "json"
        assert codec_for("application/json; charset=utf-8").name == "json"
        if "application/msgpack" in available_codecs():
            assert codec_for("application/msgpack").name == "msgpack"
        else:
            with pytest.raises(UnsupportedMediaTypeError):
                codec_for("application/msgpack")
        with pytest.raises(UnsupportedMediaTypeError):
            codec_for("text/csv")

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"op": "range_sum", "low": [0, 0]},
            {"op": "range_sum", "low": [0], "high": [1, 1]},
            {"op": "range_sum", "low": [0, "x"], "high": [1, 1]},
            {"op": "nope"},
            {"ranges": []},
            {"ranges": [[[0, 0]]]},
            {"tenant": "", "op": "prefix_sum", "cell": [1, 1]},
        ],
    )
    def test_bad_query_payloads(self, payload):
        with pytest.raises(BadRequestError):
            decode_query(payload, 2)

    @pytest.mark.parametrize(
        "payload",
        [
            {"cell": [1, 1]},
            {"cell": [1], "delta": 1},
            {"cell": [1, 1], "delta": "x"},
            {"updates": []},
            {"updates": [[[1, 1]]]},
        ],
    )
    def test_bad_update_payloads(self, payload):
        with pytest.raises(BadRequestError):
            decode_update(payload, 2)

    def test_good_payloads_normalise(self):
        query = decode_query(
            {"op": "prefix_sum", "cell": [3, 4], "tenant": "t"}, 2
        )
        assert query.ranges == (((0, 0), (3, 4)),)
        update = decode_update({"cell": [1, 2], "delta": 5}, 2)
        assert update.updates == (((1, 2), 5),)

    def test_integer_cube_deltas_are_whole_numbers(self):
        update = decode_update({"cell": [1, 2], "delta": 2.0}, 2, integer=True)
        assert update.updates == (((1, 2), 2),)
        assert type(update.updates[0][1]) is int
        for delta in (2.5, float("nan"), float("inf"), 2.0**63, -(2**63) - 1):
            with pytest.raises(BadRequestError):
                decode_update({"cell": [1, 2], "delta": delta}, 2, integer=True)
        with pytest.raises(BadRequestError, match="whole number"):
            decode_update({"updates": [[[1, 2], 1], [[0, 0], 0.5]]}, 2, integer=True)
        # A float cube keeps taking fractions, but only finite numbers.
        update = decode_update({"cell": [1, 2], "delta": 2.5}, 2)
        assert update.updates == (((1, 2), 2.5),)
        for delta in (float("nan"), float("inf"), -float("inf"), 10**400):
            with pytest.raises(BadRequestError, match="finite"):
                decode_update({"cell": [1, 2], "delta": delta}, 2)


# ----------------------------------------------------------------------
# End-to-end correctness
# ----------------------------------------------------------------------


class TestEndToEnd:
    def test_exact_answers_and_read_your_writes(self):
        engine, data = make_engine()

        async def scenario():
            server = await serving(engine)
            async with ServeClient("127.0.0.1", server.port) as client:
                response = await client.query([2, 3], [10, 12])
                assert response.status == 200
                assert response.body["value"] == int(data[2:11, 3:13].sum())
                assert "partial" not in response.body
                response = await client.update([5, 5], 7)
                assert response.status == 200
                assert response.body == {"ok": True, "applied": 1}
                response = await client.query([2, 3], [10, 12])
                assert response.body["value"] == int(data[2:11, 3:13].sum()) + 7
                response = await client.query_batch(
                    [((0, 0), (4, 4)), ((5, 5), (9, 9))]
                )
                assert [entry["value"] for entry in response.body["results"]] == [
                    int(data[:5, :5].sum()),
                    int(data[5:10, 5:10].sum()) + 7,
                ]
            await server.stop()

        run(scenario())
        engine.close()

    def test_fractional_delta_on_an_int_cube_is_a_400(self):
        engine, data = make_engine()
        assert engine.dtype.kind == "i"

        async def scenario():
            server = await serving(engine)
            async with ServeClient("127.0.0.1", server.port) as client:
                response = await client.update([5, 5], 2.5)
                assert response.status == 400
                assert "whole number on an integer cube" in response.body["error"]
                response = await client.update_many([((1, 1), 1), ((2, 2), 0.5)])
                assert response.status == 400
                response = await client.update([5, 5], 2.0)
                assert response.status == 200
                response = await client.query([5, 5], [5, 5])
                assert response.body["value"] == int(data[5, 5]) + 2
            await server.stop()

        run(scenario())
        engine.close()

    def test_float_cube_accepts_fractional_deltas(self):
        data = clustered(SHAPE, seed=3).astype(float)
        engine = ShardedEngine.from_array(data, shards=4)

        async def scenario():
            server = await serving(engine)
            async with ServeClient("127.0.0.1", server.port) as client:
                response = await client.update([5, 5], 2.5)
                assert response.status == 200
                response = await client.query([5, 5], [5, 5])
                assert response.body["value"] == data[5, 5] + 2.5
            await server.stop()

        run(scenario())
        engine.close()

    def test_a_non_finite_delta_is_a_400_and_the_cube_stays_valid(self):
        data = clustered(SHAPE, seed=3).astype(float)
        engine = ShardedEngine.from_array(data, shards=4)
        before = engine.to_dense()

        def refuse(constant):
            raise AssertionError(f"response carries {constant}")

        async def scenario():
            server = await serving(engine)
            reader, writer = await send_raw(server.port, b"")
            for literal in (b"NaN", b"Infinity", b"-Infinity"):
                body = b'{"cell":[1,1],"delta":' + literal + b"}"
                writer.write(raw_post("/update", body))
                status, _, answer = await read_response(reader)
                assert status == 400
                assert "finite" in json.loads(answer)["error"]
                writer.write(raw_query((0, 0), (3, 3)))
                status, _, answer = await read_response(reader)
                assert status == 200
                document = json.loads(answer, parse_constant=refuse)
                assert document["value"] == data[:4, :4].sum()
            writer.close()
            await server.stop()

        run(scenario())
        assert np.array_equal(engine.to_dense(), before)
        engine.close()

    def test_json_msgpack_parity(self):
        # Every codec the server registered answers alike.  msgpack is
        # registered only with the package installed; without it the
        # client refuses the codec up front.
        names = [codec_for(content_type).name for content_type in available_codecs()]
        if "msgpack" not in names:
            with pytest.raises(UnsupportedMediaTypeError):
                ServeClient("127.0.0.1", 1, codec="msgpack")
        engine, data = make_engine()

        async def scenario():
            server = await serving(engine)
            bodies = []
            for codec in names:
                async with ServeClient(
                    "127.0.0.1", server.port, codec=codec
                ) as client:
                    response = await client.query([0, 0], [9, 9])
                    assert response.status == 200
                    assert (
                        response.headers["content-type"]
                        == f"application/{codec}"
                    )
                    bodies.append(response.body)
                    response = await client.update([1, 1], 0)
                    assert response.status == 200
            assert bodies[0]["value"] == int(data[:10, :10].sum())
            assert all(body == bodies[0] for body in bodies)
            await server.stop()

        run(scenario())
        engine.close()

    def test_http_errors(self):
        engine, _ = make_engine()

        async def scenario():
            server = await serving(engine)
            async with ServeClient("127.0.0.1", server.port) as client:
                response = await client.request("GET", "/nope")
                assert response.status == 404
                response = await client.request("GET", "/query")
                assert response.status == 405
                response = await client.request("POST", "/query", {"op": "bad"})
                assert response.status == 400
                assert "unknown op" in response.body["error"]
                response = await client.request(
                    "POST", "/query", {"op": "range_sum", "low": [0], "high": [1]}
                )
                assert response.status == 400  # dimension mismatch
            await server.stop()

        run(scenario())
        engine.close()

    def test_client_errors_are_400_and_a_refused_batch_applies_nothing(self):
        engine, data = make_engine()
        before = engine.to_dense()

        async def scenario():
            server = await serving(engine)
            async with ServeClient("127.0.0.1", server.port) as client:
                for response in (
                    await client.query([5, 5], [2, 2]),  # low > high
                    await client.query([0, 0], [99, 0]),
                    await client.query_batch([((0, 0), (1, 1)), ((0, 0), (99, 0))]),
                    await client.update([99, 0], 1),
                    await client.update_many([((1, 1), 1), ((99, 0), 1)]),
                ):
                    assert response.status == 400
                    assert response.body["status"] == 400
                # More than one chunk, the last cell out of bounds.
                cells = [(i % 24, (i // 24) % 24) for i in range(_CHUNK + 87)]
                response = await client.update_many(
                    [(cell, 1) for cell in cells] + [((99, 0), 1)]
                )
                assert response.status == 400
                assert "out of bounds" in response.body["error"]
                response = await client.query([0, 0], [23, 23])
                assert response.body["value"] == int(data.sum())
            await server.stop()

        run(scenario())
        assert np.array_equal(engine.to_dense(), before)
        engine.close()

    def test_negative_content_length_is_a_400(self):
        engine, _ = make_engine()

        async def scenario():
            server = await serving(engine)
            reader, writer = await send_raw(
                server.port,
                b"POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: -5\r\n\r\n",
            )
            answer = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            assert answer.startswith(b"HTTP/1.1 400 ")
            assert b"bad Content-Length" in answer
            await server.stop()

        run(scenario())
        engine.close()

    def test_unknown_wire_format_gets_415_listing_the_available_ones(self):
        engine, data = make_engine()

        async def scenario():
            server = await serving(engine)
            async with ServeClient("127.0.0.1", server.port) as client:
                json_codec = client.codec
                client.codec = dataclasses.replace(
                    json_codec, content_type="application/x-protobuf"
                )
                response = await client.query([0, 0], [9, 9])
                assert response.status == 415
                assert response.headers["content-type"] == "application/json"
                assert "application/x-protobuf" in response.body["error"]
                for content_type in available_codecs():
                    assert content_type in response.body["error"]
                # The refusal is per request: JSON on the same
                # connection is untouched.
                client.codec = json_codec
                response = await client.query([0, 0], [9, 9])
                assert response.status == 200
                assert response.body["value"] == int(data[0:10, 0:10].sum())
            await server.stop()

        run(scenario())
        engine.close()

    def test_metrics_endpoint_both_formats(self):
        engine, _ = make_engine()

        async def scenario():
            server = await serving(engine)
            async with ServeClient("127.0.0.1", server.port) as client:
                await client.query([0, 0], [5, 5])
                response = await client.metrics()
                assert response.status == 200
                assert "repro_serve_requests_total" in response.body
                response = await client.metrics("json")
                assert response.status == 200
                assert response.body["serve"]["peak_pressure"] > 0
            await server.stop()

        run(scenario())
        engine.close()


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class TestAdmission:
    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(tenant_rate=-1)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(max_concurrency=0)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(max_queue=-1)

    def test_token_bucket_refills_on_clock(self):
        bucket = TokenBucket(rate=2.0, burst=2, now=0.0)
        assert bucket.try_acquire(0.0) == 0.0
        assert bucket.try_acquire(0.0) == 0.0
        retry = bucket.try_acquire(0.0)
        assert retry == pytest.approx(0.5)
        assert bucket.try_acquire(0.5) == 0.0  # one token accrued
        assert bucket.try_acquire(0.5) > 0.0

    def test_over_rate_tenant_gets_429_with_retry_after(self):
        clock = ManualClock()
        obs = Observability(clock=clock)
        engine, _ = make_engine(obs=obs)
        policy = AdmissionPolicy(tenant_rate=1.0, tenant_burst=2)

        async def scenario():
            server = await serving(engine, policy=policy, obs=obs)
            async with ServeClient(
                "127.0.0.1", server.port, tenant="greedy"
            ) as client:
                for _ in range(2):
                    response = await client.query([0, 0], [3, 3])
                    assert response.status == 200
                response = await client.query([0, 0], [3, 3])
                assert response.status == 429
                assert response.retry_after == pytest.approx(1.0)
                # A different tenant is unaffected.
                async with ServeClient(
                    "127.0.0.1", server.port, tenant="patient"
                ) as other:
                    response = await other.query([0, 0], [3, 3])
                    assert response.status == 200
                # Tokens accrue on the injected clock.
                clock.advance(1.0)
                response = await client.query([0, 0], [3, 3])
                assert response.status == 200
            assert server.buckets.throttled == 1
            await server.stop()

        run(scenario())
        engine.close()

    def test_overflow_gets_503_with_retry_after(self):
        engine, data = make_engine()
        policy = AdmissionPolicy(
            max_concurrency=1, max_queue=0, retry_after_seconds=2.0
        )

        async def scenario():
            server = await serving(engine, policy=policy)
            # Hold the engine turn, the only unit of demand the policy
            # allows, then overflow with a one-range query.
            await server.gate.acquire()
            async with ServeClient("127.0.0.1", server.port) as client:
                response = await client.query([2, 2], [3, 3])
                assert response.status == 503
                assert response.retry_after == pytest.approx(2.0)
                server.gate.release()
                response = await client.query([2, 2], [3, 3])
                assert response.status == 200
                assert response.body["value"] == int(data[2:4, 2:4].sum())
            assert server.gate.rejected == 1
            await server.stop()

        run(scenario())
        engine.close()


# ----------------------------------------------------------------------
# Errors: a failed engine call is a 500, and the connection lives on
# ----------------------------------------------------------------------


class TestErrors:
    def test_a_shard_bug_surfaces_as_500(self, monkeypatch):
        """A shard raising a plain ``IndexError`` (not a library error):
        the request answers 500, the same connection then gets an exact
        answer, and the failed read cached nothing."""
        engine, data = make_engine()

        def broken(*args):
            raise IndexError("shard bug")

        monkeypatch.setattr(engine.shards[1], "range_sum", broken)

        async def scenario():
            server = await serving(engine)
            async with ServeClient("127.0.0.1", server.port) as client:
                response = await client.query([0, 0], [20, 20])
                assert response.status == 500
                assert response.body["error"] == "IndexError: shard bug"
                assert response.headers["connection"] == "keep-alive"
                assert engine.cache_info()["size"] == 0
                connection = client._writer
                monkeypatch.undo()
                response = await client.query([0, 0], [20, 20])
                assert client._writer is connection  # no reconnect
                assert response.status == 200
                assert response.body["value"] == range_total(data, (0, 0), (20, 20))
            assert server.stats()["shed_responses"] == 0
            await server.stop()

        run(scenario())
        engine.close()


# ----------------------------------------------------------------------
# Health
# ----------------------------------------------------------------------


class TestHealthz:
    def test_healthz_matches_shared_evaluator(self):
        obs = Observability()
        engine, _ = make_engine(obs=obs)

        async def scenario():
            server = await serving(engine, obs=obs)
            async with ServeClient("127.0.0.1", server.port) as client:
                await client.query([0, 0], [5, 5])
                response = await client.healthz()
                assert response.status == 200
                assert response.body["healthy"] is True
                assert response.body["status"] == "ok"
                assert response.body["rules"]
            # The CLI-side evaluation over the same watchdog agrees.
            document = evaluate_health(server.watchdog)
            assert document["healthy"] is True
            await server.stop()

        run(scenario())
        engine.close()

    def test_engine_watchdog_wires_harvest(self):
        obs = Observability()
        engine, _ = make_engine(obs=obs)
        watchdog = engine_watchdog(obs, engine)
        document = evaluate_health(watchdog)
        assert document["healthy"] is True
        assert watchdog.checks == 1
        engine.close()


# ----------------------------------------------------------------------
# One thread: every engine call on the loop, batches in chunks
# ----------------------------------------------------------------------


class TestOneThread:
    def test_idle_server_runs_one_item_calls_on_the_loop(self):
        engine = counting_engine()
        data = clustered(SHAPE, seed=3)

        async def scenario():
            server = await serving(engine)
            loop_thread = threading.current_thread().name
            async with ServeClient("127.0.0.1", server.port) as client:
                response = await client.query([2, 3], [10, 12])
                assert response.body["value"] == int(data[2:11, 3:13].sum())
                response = await client.update([5, 5], 7)
                assert response.status == 200
                response = await client.healthz()
                assert response.status == 200
                response = await client.query_batch(
                    [((0, 0), (4, 4)), ((5, 5), (9, 9))]
                )
                assert [entry["value"] for entry in response.body["results"]] == [
                    int(data[:5, :5].sum()),
                    int(data[5:10, 5:10].sum()) + 7,
                ]
                response = await client.update_many([((3, 4), 7), ((5, 6), -2)])
                assert response.body == {"ok": True, "applied": 2}
                response = await client.query([2, 3], [10, 12])
                assert response.body["value"] == int(data[2:11, 3:13].sum()) + 12
            assert engine.threads == {
                "range_sum": [loop_thread, loop_thread],
                "add_many": [loop_thread, loop_thread],
                "healthz": [loop_thread],
                "range_sum_many": [loop_thread],
            }
            names = [thread.name for thread in threading.enumerate()]
            assert not [name for name in names if name.startswith("repro-serve")]
            await server.stop()

        run(scenario())
        engine.close()

    def test_metrics_answers_while_a_max_batch_computes(self):
        engine = counting_engine()
        engine.read_delay = 0.05
        data = clustered(SHAPE, seed=3)
        ranges = covering_ranges(MAX_BATCH)

        async def scenario():
            server = await serving(engine)
            # What the batch had done when the server handled /metrics.
            seen = []
            handle_metrics = server._handle_metrics

            def spy(request):
                seen.append(
                    (server.gate.inflight, engine.calls.count("range_sum_many"))
                )
                return handle_metrics(request)

            server._handle_metrics = spy
            async with ServeClient("127.0.0.1", server.port) as batcher, ServeClient(
                "127.0.0.1", server.port
            ) as other:
                await other.healthz()  # connect before the batch starts
                batch = asyncio.create_task(batcher.query_batch(ranges))
                await until(lambda: engine.calls.count("range_sum_many") >= 1)
                started = time.monotonic()
                response = await asyncio.wait_for(other.metrics(), 1.0)
                assert response.status == 200
                assert time.monotonic() - started < 1.0
                assert not batch.done()
                ((holders, chunks_begun),) = seen
                assert holders == 1 and chunks_begun < MAX_BATCH // _CHUNK
                response = await batch
                assert [entry["value"] for entry in response.body["results"]] == [
                    range_total(data, low, high) for low, high in ranges
                ]
            assert engine.calls.count("range_sum_many") == MAX_BATCH // _CHUNK
            await server.stop()

        run(scenario())
        engine.close()

    def test_a_write_queues_behind_a_chunked_read(self):
        engine = counting_engine()
        engine.read_delay = 0.02
        data = clustered(SHAPE, seed=3)
        ranges = covering_ranges(MAX_BATCH)

        async def scenario():
            server = await serving(engine)
            async with ServeClient("127.0.0.1", server.port) as batcher, ServeClient(
                "127.0.0.1", server.port
            ) as writer:
                await writer.healthz()
                batch = asyncio.create_task(batcher.query_batch(ranges))
                await until(lambda: "range_sum_many" in engine.calls)
                write = asyncio.create_task(writer.update([5, 5], 7))
                await until(lambda: server.gate.waiting == 1 or batch.done())
                assert server.gate.waiting == 1 and not batch.done()
                response = await batch
                assert [entry["value"] for entry in response.body["results"]] == [
                    range_total(data, low, high) for low, high in ranges
                ]
                assert (await write).status == 200
                response = await writer.query([5, 5], [5, 5])
                assert response.body["value"] == int(data[5, 5]) + 7
            await server.stop()

        run(scenario())
        chunks = MAX_BATCH // _CHUNK
        assert engine.calls == ["healthz"] + ["range_sum_many"] * chunks + [
            "add_many",
            "range_sum",
        ]
        engine.close()

    def test_max_batch_reads_and_writes_equal_one_unchunked_call(self):
        engine, data = make_engine()
        twin = ShardedEngine.from_array(data, shards=4)
        rng = np.random.default_rng(5)
        corners = rng.integers(0, SHAPE[0], size=(MAX_BATCH, 2, 2))
        ranges = [
            (tuple(map(int, lo)), tuple(map(int, hi)))
            for lo, hi in zip(corners.min(axis=1), corners.max(axis=1))
        ]
        cells = rng.integers(0, SHAPE[0], size=(MAX_BATCH, 2))
        deltas = rng.integers(-5, 6, size=MAX_BATCH)
        updates = [
            (tuple(map(int, cell)), int(delta)) for cell, delta in zip(cells, deltas)
        ]

        async def scenario():
            server = await serving(engine)
            async with ServeClient("127.0.0.1", server.port) as client:
                response = await client.query_batch(ranges)
                served = [entry["value"] for entry in response.body["results"]]
                assert served == twin.range_sum_many(ranges)
                response = await client.update_many(updates)
                assert response.body == {"ok": True, "applied": MAX_BATCH}
                twin.add_many(updates)
                response = await client.query_batch(ranges)
                served = [entry["value"] for entry in response.body["results"]]
                assert served == twin.range_sum_many(ranges)
            await server.stop()

        run(scenario())
        assert np.array_equal(engine.to_dense(), twin.to_dense())
        engine.close()
        twin.close()

    def test_a_cancelled_request_leaves_the_gate_empty(self):
        engine = counting_engine()
        data = clustered(SHAPE, seed=3)
        query = raw_post("/query", b'{"op":"range_sum","low":[0,0],"high":[3,3]}')

        def cancel_on_second_chunk():
            if engine.calls.count("range_sum_many") == 2:
                asyncio.current_task().cancel()

        async def cancel_waiting_requests(server):
            tasks = [conn.task for conn in server._connections if conn.task]
            for task in tasks:
                task.cancel()
            await asyncio.wait(tasks, timeout=5.0)

        async def scenario():
            server = await serving(engine)
            # Cancelled while waiting for the turn.
            await server.gate.acquire()
            _, writer = await send_raw(server.port, query)
            await until(lambda: server.gate.waiting == 1)
            await cancel_waiting_requests(server)
            writer.close()
            assert (server.gate.inflight, server.gate.waiting) == (1, 0)
            server.gate.release()
            # Cancelled between two chunks of a batch.
            engine.on_read = cancel_on_second_chunk
            body = json.dumps({"ranges": [[[0, 0], [3, 3]]] * (2 * _CHUNK + 1)})
            reader, writer = await send_raw(server.port, raw_post("/query", body.encode()))
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            assert engine.calls.count("range_sum_many") == 2
            assert (server.gate.inflight, server.gate.waiting) == (0, 0)
            engine.on_read = None
            async with ServeClient("127.0.0.1", server.port) as client:
                response = await client.query([0, 0], [3, 3])
                assert response.body["value"] == int(data[:4, :4].sum())
            await server.stop()

        run(scenario())
        engine.close()


# ----------------------------------------------------------------------
# Framing: the connection's own request parser
# ----------------------------------------------------------------------


class TestFraming:
    def test_pipelined_requests_in_one_write_are_answered_in_order(self):
        engine, data = make_engine()
        ranges = covering_ranges(2 * _CHUNK + 1)
        batch = json.dumps({"ranges": [[list(lo), list(hi)] for lo, hi in ranges]})

        async def scenario():
            server = await serving(engine)
            # The batch answers in a task; what follows it must wait.
            reader, writer = await send_raw(
                server.port,
                raw_query((0, 0), (5, 5))
                + raw_post("/query", batch.encode())
                + raw_post("/update", b'{"cell":[5,5],"delta":7}')
                + raw_query((0, 0), (5, 5)),
            )
            answers = [await read_response(reader) for _ in range(4)]
            assert [status for status, _, _ in answers] == [200] * 4
            bodies = [json.loads(body) for _, _, body in answers]
            assert bodies[0]["value"] == range_total(data, (0, 0), (5, 5))
            assert [entry["value"] for entry in bodies[1]["results"]] == [
                range_total(data, low, high) for low, high in ranges
            ]
            assert bodies[2] == {"ok": True, "applied": 1}
            assert bodies[3]["value"] == range_total(data, (0, 0), (5, 5)) + 7
            writer.close()
            await server.stop()

        run(scenario())
        engine.close()

    def test_a_request_sent_one_byte_per_write_is_parsed(self):
        engine, data = make_engine()

        async def scenario():
            server = await serving(engine)
            reader, writer = await send_raw(server.port, b"")
            for byte in raw_query((2, 3), (10, 12)):
                writer.write(bytes([byte]))
                await writer.drain()
                await asyncio.sleep(0)
            status, _, body = await read_response(reader)
            assert status == 200
            assert json.loads(body)["value"] == range_total(data, (2, 3), (10, 12))
            writer.close()
            await server.stop()

        run(scenario())
        engine.close()

    @pytest.mark.parametrize(
        "request_bytes, status, message",
        [
            (
                b"GET /healthz HTTP/1.1\r\nX-Pad: "
                + b"a" * (MAX_HEAD_BYTES + 8)
                + b"\r\n\r\n",
                431,
                b"request head too large",
            ),
            (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (MAX_HEAD_BYTES + 8), 431, b"too large"),
            (
                f"POST /update HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}"
                "\r\n\r\n".encode(),
                413,
                b"request body too large",
            ),
            (b"GARBAGE\r\n\r\n", 400, b"malformed request line"),
            (
                b"POST /update HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b'18\r\n{"cell":[1,1],"delta":1}\r\n0\r\n\r\n',
                501,
                b"Transfer-Encoding",
            ),
        ],
        ids=["head-431", "unterminated-head-431", "body-413", "line-400", "chunked-501"],
    )
    def test_a_broken_frame_gets_one_error_and_the_connection_closes(
        self, request_bytes, status, message
    ):
        engine, _ = make_engine()
        before = engine.to_dense()

        async def scenario():
            server = await serving(engine)
            reader, writer = await send_raw(server.port, request_bytes)
            answer = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            assert answer.startswith(f"HTTP/1.1 {status} ".encode())
            assert answer.count(b"HTTP/1.1") == 1
            assert b"Connection: close" in answer
            assert message in answer
            await server.stop()

        run(scenario())
        assert np.array_equal(engine.to_dense(), before)
        engine.close()

    def test_http_1_0_closes_unless_it_asks_for_keep_alive(self):
        engine, _ = make_engine()

        async def scenario():
            server = await serving(engine)
            reader, writer = await send_raw(
                server.port, b"GET /healthz HTTP/1.0\r\n\r\n"
            )
            answer = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            assert answer.startswith(b"HTTP/1.1 200 ")
            assert b"Connection: close" in answer
            request = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
            reader, writer = await send_raw(server.port, request)
            for _ in range(2):
                status, headers, _ = await read_response(reader)
                assert (status, headers["connection"]) == (200, "keep-alive")
                writer.write(request)
            writer.close()
            await server.stop()

        run(scenario())
        engine.close()

    @pytest.mark.parametrize(
        "partial",
        [b"POST /query HTTP/1.1\r\nHost", raw_query((0, 0), (3, 3))[:-5]],
        ids=["head", "body"],
    )
    def test_a_partial_request_times_out_with_408(self, monkeypatch, partial):
        import repro.serve.server as server_module

        monkeypatch.setattr(server_module, "_REQUEST_TIMEOUT_S", 0.05)
        engine, _ = make_engine()

        async def scenario():
            server = await serving(engine)
            reader, writer = await send_raw(server.port, partial)
            answer = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            assert answer.startswith(b"HTTP/1.1 408 ")
            assert b"Connection: close" in answer
            await server.stop()

        run(scenario())
        engine.close()

    def test_an_idle_keep_alive_connection_is_never_timed_out(self, monkeypatch):
        import repro.serve.server as server_module

        monkeypatch.setattr(server_module, "_REQUEST_TIMEOUT_S", 0.05)
        engine, data = make_engine()

        async def scenario():
            server = await serving(engine)
            reader, writer = await send_raw(server.port, raw_query((0, 0), (3, 3)))
            assert (await read_response(reader))[0] == 200
            await asyncio.sleep(0.25)
            writer.write(raw_query((0, 0), (3, 3)))
            status, _, body = await read_response(reader)
            assert status == 200
            assert json.loads(body)["value"] == range_total(data, (0, 0), (3, 3))
            writer.close()
            await server.stop()

        run(scenario())
        engine.close()

    def test_a_client_that_does_not_read_pauses_the_server_reading(self):
        engine, data = make_engine()
        high_water = 8192
        count = 3000
        expected = range_total(data, (0, 0), (5, 5))

        async def scenario():
            server = await serving(engine)
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(("127.0.0.1", server.port))
            reader, writer = await asyncio.open_connection(sock=sock)
            await until(lambda: len(server._connections) == 1)
            (conn,) = server._connections
            transport = conn.transport
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            transport.set_write_buffer_limits(high=high_water)
            writer.write(raw_query((0, 0), (5, 5)))
            head = await reader.readuntil(b"\r\n\r\n")
            length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
            one_response = len(head) + len(await reader.readexactly(length))
            writer.write(raw_query((0, 0), (5, 5)) * count)
            await until(lambda: conn.write_paused)
            peak = 0
            for _ in range(20):
                assert not transport.is_reading()
                peak = max(peak, transport.get_write_buffer_size())
                await asyncio.sleep(0.005)
            assert 0 < peak <= high_water + one_response
            answers = [await read_response(reader) for _ in range(count)]
            assert {status for status, _, _ in answers} == {200}
            assert {json.loads(body)["value"] for _, _, body in answers} == {expected}
            writer.close()
            await server.stop()

        run(scenario())
        engine.close()


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------


class TestShutdown:
    def test_drain_completes_inflight_requests(self):
        engine, data = make_engine()

        async def scenario():
            server = await serving(engine)
            # Hold the engine turn so a request waits in flight.
            await server.gate.acquire()
            client = ServeClient("127.0.0.1", server.port)
            inflight = asyncio.create_task(client.query([0, 0], [3, 3]))
            await until(lambda: server.gate.waiting == 1)
            # Release the turn shortly after stop() starts draining,
            # then verify the response was still delivered.
            stopper = asyncio.create_task(server.stop())
            await asyncio.sleep(0.05)
            server.gate.release()
            await stopper
            response = await inflight
            assert response.status == 200
            assert response.body["value"] == int(data[:4, :4].sum())
            await client.close()
            # A fresh connection is refused once stopped.
            with pytest.raises((ConnectionError, OSError)):
                probe = ServeClient("127.0.0.1", server.port)
                await probe.query([0, 0], [1, 1])

        run(scenario())
        engine.close()
