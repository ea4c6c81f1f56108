"""The asyncio HTTP front-end over a :class:`~repro.engine.ShardedEngine`.

Pure-stdlib HTTP/1.1 (``asyncio.start_server`` + ``Content-Length``
bodies, keep-alive) so the server runs everywhere the engine does — no
web framework required.  Request flow for ``/query`` and ``/update``::

    parse + validate (wire.py)
      → per-tenant token bucket            (429 + Retry-After)
      → overflow check                     (503 + Retry-After)
      → engine turn                        (one engine call at a time)
      → engine call(s) on the event loop, ``_CHUNK`` items each

The server has one thread.  Every engine call runs synchronously on the
event loop while its request holds the **engine turn** (the lock inside
:class:`~repro.serve.admission.ConcurrencyGate`).  A one-item call costs
well under a millisecond, and an uncontended turn is taken without
yielding, so a one-item request never leaves the loop.  A batch larger
than ``_CHUNK`` runs as several engine calls with a yield between them;
it keeps the turn throughout, so no other read or write interleaves
with it while ``/metrics``, ``/healthz`` and request parsing stay live.
A write batch is validated in full before its first chunk, so a refused
batch applies nothing.

**Load shedding** watches the gate's pressure: above
``AdmissionPolicy.shed_watermark`` the server flips the engine's
resilience degradation from strict to partial (via
``engine.set_degradation``) so stragglers stop holding answers hostage
exactly when capacity is scarcest, and flips it back when pressure
subsides.  Responses served during a shed window carry ``shed: true``.

``/healthz`` reports the same verdict as ``repro top --once`` — both go
through :func:`repro.obs.slo.evaluate_health`, so the CLI and the
endpoint cannot drift; it runs on the loop without taking the turn.
``/metrics`` reuses the registry's Prometheus exposition
(``?format=json`` for the JSON mirror plus server counters).
"""

from __future__ import annotations

import asyncio
from typing import Any
from urllib.parse import parse_qs, urlsplit

import numpy as np

from ..exceptions import (
    BadRequestError,
    CircuitOpenError,
    DeadlineExceededError,
    DimensionMismatchError,
    InvalidRangeError,
    OutOfBoundsError,
    ReproError,
    ServeError,
    UnsupportedMediaTypeError,
)
from ..geometry import normalize_cell
from ..obs import Observability, engine_watchdog, evaluate_health
from .admission import AdmissionPolicy, ConcurrencyGate, TenantBuckets
from .wire import (
    Codec,
    codec_for,
    decode_query,
    decode_update,
    default_codec,
    error_body,
    query_response,
    update_response,
)

__all__ = ["CubeServer"]

#: Request body ceiling — a single request must not be able to balloon
#: loop memory past what ``MAX_BATCH`` already bounds logically.
MAX_BODY_BYTES = 8 << 20

#: Request-line + headers ceiling for ``readuntil``.
MAX_HEAD_BYTES = 32 << 10

#: Items per engine call of a batch: at least every method's fitted
#: batch crossover (clamped to at most 257), and small enough that the
#: slowest chunk measured (``ddc`` 64³, see ``docs/serving.md``) keeps
#: the loop answering ``/metrics`` inside a second.
_CHUNK = 512

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpRequest:
    """One parsed request: line, lowercased headers, raw body."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method, path, query, headers, body):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body


class CubeServer:
    """Serve a :class:`~repro.engine.ShardedEngine` over HTTP.

    Args:
        engine: the engine to serve; its calls run on the event loop.
        host/port: bind address; ``port=0`` picks an ephemeral port
            (read :attr:`port` after :meth:`start`).
        policy: admission configuration (:class:`AdmissionPolicy`).
        obs: observability facade for server metrics; defaults to the
            engine's facade when enabled, else a fresh one so
            ``/metrics`` always has a live registry.
        slo_rules: optional SLO rule overrides for ``/healthz``.
    """

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: AdmissionPolicy | None = None,
        obs=None,
        slo_rules=None,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.policy = policy if policy is not None else AdmissionPolicy()
        if obs is not None:
            self.obs = obs
        elif getattr(engine.obs, "enabled", False):
            self.obs = engine.obs
        else:
            self.obs = Observability(remote_worker_metrics=False)
        self.watchdog = engine_watchdog(self.obs, engine, rules=slo_rules)
        self.dims = len(engine.shape)
        # An integer cube takes whole-number deltas only (wire.decode_update).
        self._integer_deltas = np.dtype(engine.dtype).kind in "iu"
        self.buckets = TenantBuckets(self.policy)
        self.gate = ConcurrencyGate(self.policy)
        self.shedding = False
        self.shed_entries = 0
        self.shed_responses = 0
        self.drained = 0
        self._saved_degradation: str | None = None
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self._busy = 0
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._register_instruments()

    def _register_instruments(self) -> None:
        metrics = self.obs.metrics
        self._requests_total = metrics.counter(
            "repro_serve_requests_total",
            "HTTP requests served, by route and status code.",
            labels=("route", "code"),
        )
        self._request_seconds = metrics.histogram(
            "repro_serve_request_seconds",
            "End-to-end request latency, by route.",
            labels=("route",),
        )
        # (route, status) -> (requests counter, latency histogram)
        # children, bound on a pair's first request.
        self._route_instruments: dict[tuple[str, int], tuple] = {}
        self._admission_total = metrics.counter(
            "repro_serve_admission_total",
            "Admission decisions: throttled (429), overflow (503), "
            "shed-mode entries.",
            labels=("action",),
        )
        self._inflight_gauge = metrics.gauge(
            "repro_serve_inflight",
            "Requests currently being handled.",
        ).labels()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "CubeServer":
        """Bind and start accepting connections."""
        if self._server is not None:
            raise ServeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_HEAD_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain in-flight requests, close.

        With ``drain`` (the default) requests already being handled get
        up to ``policy.drain_seconds`` to finish — their responses are
        written before the connection closes.  Idle keep-alive
        connections are closed immediately either way.
        """
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        if drain:
            deadline = (
                asyncio.get_running_loop().time() + self.policy.drain_seconds
            )
            while self._busy > 0:
                if asyncio.get_running_loop().time() >= deadline:
                    break
                await asyncio.sleep(0.005)
            self.drained += 1
        for writer in list(self._writers):
            writer.close()
        # Closed transports deliver EOF to parked readers, so handlers
        # exit on their own; cancellation is only the stragglers' path.
        tasks = [task for task in self._conn_tasks if not task.done()]
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        self._server = None

    async def serve_forever(self) -> None:
        """Block until the listening server is closed."""
        if self._server is None:
            raise ServeError("server not started")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stats(self) -> dict:
        """Server-side counters the bench and tests assert against."""
        return {
            # Constant since single-flight coalescing was removed; kept
            # because benchmarks/e2e/served.py reads both keys.
            "coalesce_leaders": 0,
            "coalesce_followers": 0,
            "inflight": self.gate.inflight,
            "waiting": self.gate.waiting,
            "peak_pressure": self.gate.peak_pressure,
            "overflow_rejected": self.gate.rejected,
            "throttled": self.buckets.throttled,
            "shedding": self.shedding,
            "shed_entries": self.shed_entries,
            "shed_responses": self.shed_responses,
            "tenants": len(self.buckets),
        }

    # ------------------------------------------------------------------
    # Load shedding
    # ------------------------------------------------------------------

    def _update_shed(self) -> None:
        """Flip strict → partial (and back) on gate pressure.

        Only meaningful when the engine carries a resilience policy —
        without one there is no degradation axis to move along.
        """
        if self.engine.policy is None:
            return
        pressure = self.gate.pressure
        if not self.shedding and pressure >= self.policy.shed_watermark:
            self._saved_degradation = self.engine.set_degradation("partial")
            self.shedding = True
            self.shed_entries += 1
            self._admission_total.labels(action="shed_enter").inc()
        elif self.shedding and pressure < self.policy.shed_watermark:
            self.engine.set_degradation(self._saved_degradation or "strict")
            self.shedding = False

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            while not self._draining:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                self._busy += 1
                self._inflight_gauge.set(self._busy)
                try:
                    keep_alive = await self._dispatch(request, writer)
                finally:
                    self._busy -= 1
                    self._inflight_gauge.set(self._busy)
                if not keep_alive or self._draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # shutdown reaping a parked keep-alive connection
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> _HttpRequest | None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            await self._write_error(writer, None, 431, "request head too large")
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            await self._write_error(writer, None, 400, "malformed request line")
            return None
        method, target, _version = parts
        split = urlsplit(target)
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        try:
            length = int(length)
        except ValueError:
            length = -1
        if length < 0:
            await self._write_error(writer, None, 400, "bad Content-Length")
            return None
        if length > MAX_BODY_BYTES:
            await self._write_error(writer, None, 413, "request body too large")
            return None
        body = await reader.readexactly(length) if length else b""
        return _HttpRequest(
            method.upper(), split.path, parse_qs(split.query), headers, body
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        route = request.path
        start = self.obs.clock.now()
        codec = default_codec()
        status = 500
        try:
            codec = codec_for(
                request.headers.get("accept")
                or request.headers.get("content-type")
            )
            status, body, extra = await self._route(request)
        except (
            BadRequestError,
            OutOfBoundsError,
            InvalidRangeError,
            DimensionMismatchError,
        ) as exc:
            status, body, extra = 400, error_body(400, str(exc)), {}
        except UnsupportedMediaTypeError as exc:
            status, body, extra = 415, error_body(415, str(exc)), {}
        except (CircuitOpenError, DeadlineExceededError) as exc:
            status = 503
            body = error_body(503, str(exc))
            extra = {"Retry-After": self._retry_after()}
        except ReproError as exc:
            status, body, extra = 500, error_body(500, str(exc)), {}
        instruments = self._route_instruments.get((route, status))
        if instruments is None:
            instruments = self._route_instruments[(route, status)] = (
                self._requests_total.labels(route=route, code=str(status)),
                self._request_seconds.labels(route=route),
            )
        requests, seconds = instruments
        requests.inc()
        seconds.observe(max(0.0, self.obs.clock.now() - start))
        keep_alive = self._keep_alive(request)
        await self._write_response(
            writer, codec, status, body, extra, keep_alive
        )
        return keep_alive

    async def _route(self, request: _HttpRequest):
        path, method = request.path, request.method
        if path == "/query":
            if method != "POST":
                return 405, error_body(405, "POST required"), {}
            return await self._handle_query(request)
        if path == "/update":
            if method != "POST":
                return 405, error_body(405, "POST required"), {}
            return await self._handle_update(request)
        if path == "/healthz":
            if method != "GET":
                return 405, error_body(405, "GET required"), {}
            return self._handle_healthz()
        if path == "/metrics":
            if method != "GET":
                return 405, error_body(405, "GET required"), {}
            return self._handle_metrics(request)
        return 404, error_body(404, f"no route {path!r}"), {}

    def _keep_alive(self, request: _HttpRequest) -> bool:
        if self._draining:
            return False
        connection = request.headers.get("connection", "").lower()
        return connection != "close"

    def _retry_after(self) -> str:
        return f"{self.policy.retry_after_seconds:g}"

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    async def _handle_query(self, request: _HttpRequest):
        payload = codec_for(request.headers.get("content-type")).decode(
            request.body
        )
        parsed = decode_query(payload, self.dims)
        denied = self._admit(parsed.tenant)
        if denied is not None:
            return denied
        if self.gate.would_overflow():
            return self._overflow()
        read = self.engine.range_sum_many if parsed.batch else self._range_sum
        parts = await self._gated(read, parsed.ranges)
        body = query_response(
            [value for part in parts for value in part],
            batch=parsed.batch,
            coalesced=False,
            shed=self.shedding,
        )
        if body["shed"]:
            self.shed_responses += 1
        return 200, body, {}

    def _range_sum(self, ranges) -> list:
        ((low, high),) = ranges
        return [self.engine.range_sum(low, high)]

    async def _handle_update(self, request: _HttpRequest):
        payload = codec_for(request.headers.get("content-type")).decode(
            request.body
        )
        parsed = decode_update(payload, self.dims, integer=self._integer_deltas)
        denied = self._admit(parsed.tenant)
        if denied is not None:
            return denied
        updates = parsed.updates
        if len(updates) > _CHUNK:
            # One chunk is checked whole by the engine; several are
            # checked here, so a refused batch applies nothing.
            for cell, _ in updates:
                normalize_cell(cell, self.engine.shape)
        if self.gate.would_overflow():
            return self._overflow()
        await self._gated(self.engine.add_many, updates)
        return 200, update_response(len(updates)), {}

    def _handle_healthz(self):
        document = evaluate_health(self.watchdog, self.engine)
        return (200 if document["healthy"] else 503), document, {}

    def _handle_metrics(self, request: _HttpRequest):
        fmt = (request.query.get("format") or ["prometheus"])[0]
        if fmt == "json":
            document = self.obs.metrics.to_json()
            document["serve"] = self.stats()
            return 200, document, {}
        text = self.obs.metrics.render_prometheus()
        return 200, text, {"Content-Type": "text/plain; version=0.0.4"}

    # ------------------------------------------------------------------
    # Admission plumbing
    # ------------------------------------------------------------------

    def _admit(self, tenant: str):
        """Token-bucket check; a non-None return is the 429 response."""
        retry_after = self.buckets.try_acquire(tenant, self.obs.clock.now())
        if retry_after > 0:
            self._admission_total.labels(action="throttled").inc()
            return (
                429,
                error_body(429, f"tenant {tenant!r} over rate limit"),
                {"Retry-After": f"{retry_after:.3f}"},
            )
        return None

    def _overflow(self):
        self._admission_total.labels(action="overflow").inc()
        return (
            503,
            error_body(503, "server at capacity"),
            {"Retry-After": self._retry_after()},
        )

    async def _gated(self, call, items: tuple) -> list:
        """Run ``call`` over ``items`` on the loop under the engine turn.

        ``call`` takes at most ``_CHUNK`` items at a time, with a yield
        between calls; the turn is held from the first call to the last,
        so no other engine call interleaves with a batch.  Returns each
        call's result in order.  While the request holds or waits for
        the turn, pressure, ``peak_pressure`` and shedding count it.
        """
        await self.gate.acquire()
        self._update_shed()
        try:
            parts = [call(items[:_CHUNK])]
            for start in range(_CHUNK, len(items), _CHUNK):
                await asyncio.sleep(0)
                parts.append(call(items[start : start + _CHUNK]))
            return parts
        finally:
            self.gate.release()
            self._update_shed()

    # ------------------------------------------------------------------
    # Response writing
    # ------------------------------------------------------------------

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        codec: Codec,
        status: int,
        body: Any,
        extra: dict,
        keep_alive: bool,
    ) -> None:
        if isinstance(body, str):
            payload = body.encode("utf-8")
            content_type = extra.pop("Content-Type", "text/plain")
        else:
            payload = codec.encode(body)
            content_type = extra.pop("Content-Type", codec.content_type)
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{name}: {value}" for name, value in extra.items())
        writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + payload)
        try:
            await writer.drain()
        except ConnectionError:
            pass

    async def _write_error(
        self, writer, codec, status: int, message: str
    ) -> None:
        await self._write_response(
            writer,
            codec or default_codec(),
            status,
            error_body(status, message),
            {},
            keep_alive=False,
        )
