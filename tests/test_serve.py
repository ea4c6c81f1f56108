"""The HTTP serving front-end: wire format, coalescing, admission,
shedding, and graceful shutdown.

Every async scenario runs through ``asyncio.run`` inside a plain sync
test (no pytest-asyncio dependency).  Server correctness is checked
end-to-end over real sockets against locally computed range sums; the
concurrency-sensitive behaviours (single-flight, overflow, drain) use
an engine subclass whose reads block on a :class:`threading.Event`, so
the tests control exactly when an in-flight engine call completes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading

import pytest

from repro.engine import FaultInjector, SerialExecutor, ShardedEngine
from repro.engine.resilience import ResiliencePolicy
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
    SingleFlight,
    TokenBucket,
    available_codecs,
    codec_for,
    decode_query,
    decode_update,
)
from repro.serve.msgpack_lite import packb, unpackb
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
    """Calls count, record the thread they ran on, and (optionally)
    block on an event."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read_calls = 0
        self.threads: dict[str, list[str]] = {}
        self.gate_event: threading.Event | None = None

    def _enter(self, op):
        self.threads.setdefault(op, []).append(threading.current_thread().name)
        if self.gate_event is not None:
            assert self.gate_event.wait(timeout=10.0)

    def range_sum(self, low, high):
        self.read_calls += 1
        self._enter("range_sum")
        return super().range_sum(low, high)

    def range_sum_many(self, ranges):
        self._enter("range_sum_many")
        return super().range_sum_many(ranges)

    def add_many(self, updates):
        self._enter("add_many")
        return super().add_many(updates)

    def resilience_info(self):
        self.threads.setdefault("healthz", []).append(
            threading.current_thread().name
        )
        return super().resilience_info()


async def park_batch(server):
    """Send a two-range batch and return once it holds the pool.

    With the engine's ``gate_event`` unset the batch blocks there, so
    every later engine call must hop and wait behind it.
    """
    client = ServeClient("127.0.0.1", server.port)
    task = asyncio.create_task(
        client.query_batch([((0, 0), (3, 3)), ((4, 4), (7, 7))])
    )
    while server.gate.inflight == 0:
        await asyncio.sleep(0.005)
    return client, task


def in_pool(name):
    return name.startswith("repro-serve")


# ----------------------------------------------------------------------
# msgpack_lite
# ----------------------------------------------------------------------


class TestMsgpackLite:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            127,
            128,
            255,
            256,
            65535,
            65536,
            -1,
            -32,
            -33,
            -128,
            -129,
            -(1 << 40),
            1 << 40,
            1.5,
            -2.25,
            "",
            "hello",
            "x" * 40,
            "ünïcødé",
            b"",
            b"\x00\xff" * 10,
            [],
            [1, [2, [3]]],
            {},
            {"a": 1, "b": [True, None]},
            list(range(20)),
            {"k" + str(i): i for i in range(20)},
        ],
    )
    def test_round_trip(self, value):
        assert unpackb(packb(value)) == value

    def test_known_byte_vectors(self):
        # Spot-checks against the MessagePack spec so the fallback
        # interoperates with real msgpack implementations.
        assert packb(None) == b"\xc0"
        assert packb(True) == b"\xc3"
        assert packb(5) == b"\x05"
        assert packb(-3) == b"\xfd"
        assert packb(200) == b"\xcc\xc8"
        assert packb("hi") == b"\xa2hi"
        assert packb([1, 2]) == b"\x92\x01\x02"
        assert packb({"a": 1}) == b"\x81\xa1a\x01"
        assert packb(1.5) == b"\xcb?\xf8\x00\x00\x00\x00\x00\x00"

    def test_truncated_and_trailing_input_rejected(self):
        with pytest.raises(BadRequestError):
            unpackb(packb([1, 2, 3])[:-1])
        with pytest.raises(BadRequestError):
            unpackb(packb(1) + b"\x01")
        with pytest.raises(BadRequestError):
            unpackb(b"")


# ----------------------------------------------------------------------
# Wire validation
# ----------------------------------------------------------------------


class TestWire:
    def test_codec_negotiation(self):
        assert codec_for(None).name == "json"
        assert codec_for("*/*").name == "json"
        assert codec_for("application/json; charset=utf-8").name == "json"
        assert codec_for("application/msgpack").name == "msgpack"
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
        # A float cube keeps taking fractions.
        update = decode_update({"cell": [1, 2], "delta": 2.5}, 2)
        assert update.updates == (((1, 2), 2.5),)


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
                assert response.body["partial"] is False
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

    def test_json_msgpack_parity(self):
        engine, data = make_engine()

        async def scenario():
            server = await serving(engine)
            bodies = []
            for codec in ("json", "msgpack"):
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
            assert bodies[0] == bodies[1]
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
                assert "repro_serve_coalesced_total" in response.body
                response = await client.metrics("json")
                assert response.status == 200
                assert response.body["serve"]["coalesce_leaders"] >= 1
            await server.stop()

        run(scenario())
        engine.close()


# ----------------------------------------------------------------------
# Single-flight coalescing
# ----------------------------------------------------------------------


class TestCoalescing:
    def test_n_concurrent_identical_queries_one_engine_call(self):
        engine = CountingEngine.from_array(clustered(SHAPE, seed=3), shards=4)
        engine.gate_event = threading.Event()
        followers = 8

        async def scenario():
            server = await serving(engine)
            # A batch in the pool makes the leader's call hop too, so
            # its flight stays open for followers to join.
            batcher, batch = await park_batch(server)
            clients = [
                ServeClient("127.0.0.1", server.port)
                for _ in range(followers + 1)
            ]
            tasks = [
                asyncio.create_task(client.query([1, 1], [20, 20]))
                for client in clients
            ]
            # Wait until every follower has joined the leader's flight,
            # then let the batch and the single engine call finish.
            while server.flights.followers < followers:
                await asyncio.sleep(0.005)
            engine.gate_event.set()
            assert (await batch).status == 200
            await batcher.close()
            responses = await asyncio.gather(*tasks)
            values = {response.body["value"] for response in responses}
            assert len(values) == 1
            assert all(response.status == 200 for response in responses)
            coalesced = [r.body["coalesced"] for r in responses]
            assert coalesced.count(True) == followers
            assert coalesced.count(False) == 1
            for client in clients:
                await client.close()
            await server.stop()

        run(scenario())
        assert engine.read_calls == 1
        engine.close()

    def test_different_tenants_do_not_coalesce(self):
        engine = CountingEngine.from_array(clustered(SHAPE, seed=3), shards=4)

        async def scenario():
            server = await serving(engine)
            a = ServeClient("127.0.0.1", server.port, tenant="a")
            b = ServeClient("127.0.0.1", server.port, tenant="b")
            ra, rb = await asyncio.gather(
                a.query([0, 0], [10, 10]), b.query([0, 0], [10, 10])
            )
            assert ra.body["value"] == rb.body["value"]
            assert server.flights.leaders == 2
            await a.close()
            await b.close()
            await server.stop()

        run(scenario())
        assert engine.read_calls == 2
        engine.close()

    def test_single_flight_exception_propagates_and_clears(self):
        async def scenario():
            flight = SingleFlight()

            async def boom():
                raise ValueError("x")

            with pytest.raises(ValueError):
                await flight.run("k", boom)
            assert len(flight) == 0

            async def fine():
                return 41

            value, coalesced = await flight.run("k", fine)
            assert (value, coalesced) == (41, False)

        run(scenario())


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
            AdmissionPolicy(shed_watermark=-0.1)

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
        engine = CountingEngine.from_array(clustered(SHAPE, seed=3), shards=4)
        engine.gate_event = threading.Event()
        policy = AdmissionPolicy(
            max_concurrency=1, max_queue=0, retry_after_seconds=2.0
        )

        async def scenario():
            server = await serving(engine, policy=policy)
            # Occupy the only slot with a batch parked in the pool, then
            # overflow with a one-range query.
            blocker, blocked = await park_batch(server)
            async with ServeClient("127.0.0.1", server.port) as client:
                response = await client.query([2, 2], [3, 3])
                assert response.status == 503
                assert response.retry_after == pytest.approx(2.0)
            engine.gate_event.set()
            response = await blocked
            assert response.status == 200
            await blocker.close()
            assert server.gate.rejected == 1
            await server.stop()

        run(scenario())
        engine.close()


# ----------------------------------------------------------------------
# Load shedding: strict -> partial under pressure
# ----------------------------------------------------------------------


class TestShedding:
    def _faulty_engine(self):
        clock = ManualClock()
        obs = Observability(clock=clock)
        injector = FaultInjector(SerialExecutor(), clock=clock, fault_rate=1.0)
        engine = ShardedEngine.from_array(
            clustered(SHAPE, seed=3),
            shards=4,
            obs=obs,
            resilience=ResiliencePolicy(
                degradation="strict", max_retries=0, breaker_window=0
            ),
            executor=injector,
        )
        return engine, obs

    def test_under_pressure_strict_degrades_to_partial(self):
        engine, obs = self._faulty_engine()
        policy = AdmissionPolicy(shed_watermark=0.0)  # always shedding

        async def scenario():
            server = await serving(engine, policy=policy, obs=obs)
            async with ServeClient("127.0.0.1", server.port) as client:
                response = await client.query([0, 0], [20, 20])
                assert response.status == 200
                assert response.body["partial"] is True
                assert response.body["shed"] is True
                assert response.body["missing_shards"]
            assert server.shedding
            assert server.shed_entries >= 1
            await server.stop()

        run(scenario())
        assert engine.policy.degradation == "partial"
        engine.close()

    def test_without_pressure_strict_failures_surface_as_500(self):
        engine, obs = self._faulty_engine()
        policy = AdmissionPolicy(shed_watermark=100.0)  # never sheds

        async def scenario():
            server = await serving(engine, policy=policy, obs=obs)
            async with ServeClient("127.0.0.1", server.port) as client:
                response = await client.query([0, 0], [20, 20])
                assert response.status == 500
                assert "shard" in response.body["error"]
            assert not server.shedding
            await server.stop()

        run(scenario())
        assert engine.policy.degradation == "strict"
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
            document = evaluate_health(server.watchdog, engine)
            assert document["healthy"] is True
            await server.stop()

        run(scenario())
        engine.close()

    def test_engine_watchdog_wires_harvest(self):
        obs = Observability()
        engine, _ = make_engine(obs=obs)
        watchdog = engine_watchdog(obs, engine)
        document = evaluate_health(watchdog, engine)
        assert document["healthy"] is True
        assert watchdog.checks == 1
        engine.close()


# ----------------------------------------------------------------------
# Loop or pool: where an engine call runs
# ----------------------------------------------------------------------


class TestLoopOrPool:
    def test_idle_server_runs_one_item_calls_on_the_loop(self):
        engine = CountingEngine.from_array(clustered(SHAPE, seed=3), shards=4)
        data = clustered(SHAPE, seed=3)

        async def scenario():
            server = await serving(engine)
            submitted = []
            submit = server._pool.submit

            def spy(fn, *args):
                submitted.append(fn)
                return submit(fn, *args)

            server._pool.submit = spy
            loop_thread = threading.current_thread().name
            async with ServeClient("127.0.0.1", server.port) as client:
                response = await client.query([2, 3], [10, 12])
                assert response.body["value"] == int(data[2:11, 3:13].sum())
                response = await client.update([5, 5], 7)
                assert response.status == 200
                response = await client.healthz()
                assert response.status == 200
                response = await client.query([2, 3], [10, 12])
                assert response.body["value"] == int(data[2:11, 3:13].sum()) + 7
            assert engine.threads == {
                "range_sum": [loop_thread, loop_thread],
                "add_many": [loop_thread],
                "healthz": [loop_thread],
            }
            assert submitted == []
            stats = server.stats()
            assert (stats["loop_calls"], stats["pool_calls"]) == (4, 0)
            await server.stop()

        run(scenario())
        engine.close()

    def test_one_range_query_hops_behind_a_parked_batch(self):
        engine = CountingEngine.from_array(clustered(SHAPE, seed=3), shards=4)
        engine.gate_event = threading.Event()
        data = clustered(SHAPE, seed=3)

        async def scenario():
            server = await serving(engine)
            batcher, batch = await park_batch(server)
            async with ServeClient("127.0.0.1", server.port) as client:
                scalar = asyncio.create_task(client.query([1, 2], [9, 11]))
                while server.stats()["pool_calls"] < 2:
                    await asyncio.sleep(0.005)
                # The loop stays free while the batch holds the pool.
                async with ServeClient("127.0.0.1", server.port) as other:
                    response = await asyncio.wait_for(other.metrics(), 1.0)
                    assert response.status == 200
                assert not scalar.done()
                engine.gate_event.set()
                response = await scalar
                assert response.status == 200
                assert response.body["value"] == int(data[1:10, 2:12].sum())
            assert (await batch).status == 200
            await batcher.close()
            (thread,) = engine.threads["range_sum"]
            assert in_pool(thread)
            stats = server.stats()
            assert (stats["loop_calls"], stats["pool_calls"]) == (0, 2)
            await server.stop()

        run(scenario())
        engine.close()

    def test_batches_always_hop(self):
        engine = CountingEngine.from_array(clustered(SHAPE, seed=3), shards=4)
        data = clustered(SHAPE, seed=3)

        async def scenario():
            server = await serving(engine)
            async with ServeClient("127.0.0.1", server.port) as client:
                response = await client.query_batch(
                    [((0, 0), (4, 4)), ((5, 5), (9, 9))]
                )
                assert [entry["value"] for entry in response.body["results"]] == [
                    int(data[:5, :5].sum()),
                    int(data[5:10, 5:10].sum()),
                ]
                response = await client.update_many([((3, 4), 7), ((5, 6), -2)])
                assert response.body == {"ok": True, "applied": 2}
            assert all(in_pool(name) for name in engine.threads["range_sum_many"])
            assert all(in_pool(name) for name in engine.threads["add_many"])
            stats = server.stats()
            assert (stats["loop_calls"], stats["pool_calls"]) == (0, 2)
            await server.stop()

        run(scenario())
        engine.close()


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------


class TestShutdown:
    def test_drain_completes_inflight_requests(self):
        engine = CountingEngine.from_array(clustered(SHAPE, seed=3), shards=4)
        engine.gate_event = threading.Event()

        async def scenario():
            server = await serving(engine)
            client, inflight = await park_batch(server)
            # Release the engine call shortly after stop() starts
            # draining, then verify the response was still delivered.
            stopper = asyncio.create_task(server.stop())
            await asyncio.sleep(0.05)
            engine.gate_event.set()
            await stopper
            response = await inflight
            assert response.status == 200
            await client.close()
            # A fresh connection is refused once stopped.
            with pytest.raises((ConnectionError, OSError)):
                probe = ServeClient("127.0.0.1", server.port)
                await probe.query([0, 0], [1, 1])

        run(scenario())
        engine.close()
