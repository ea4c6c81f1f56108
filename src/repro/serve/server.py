"""The asyncio HTTP front-end over a :class:`~repro.engine.ShardedEngine`.

Pure-stdlib HTTP/1.1 (one ``asyncio.Protocol`` per connection,
``Content-Length`` bodies, keep-alive) so the server runs everywhere the
engine does — no web framework required.  Request flow for ``/query``
and ``/update``::

    frame (_Connection)                  400 / 408 / 413 / 431 / 501, close
      → parse + validate (wire.py)
      → per-tenant token bucket          (429 + Retry-After)
      → overflow check                   (503 + Retry-After)
      → engine turn                      (one engine call at a time)
      → engine call(s) on the event loop, ``_CHUNK`` items each
      → encode + ``transport.write``

The server has one thread.  Each connection frames requests out of its
own buffer in ``data_received`` and answers them in arrival order.  A
request runs **inline** — from bytes in to ``transport.write`` in one
synchronous pass, with no task — when nobody holds or waits for the
**engine turn** (the lock inside
:class:`~repro.serve.admission.ConcurrencyGate`) and it has at most
``_CHUNK`` items.  Otherwise it becomes a task that awaits the turn and
runs ``_CHUNK`` items per engine call with a yield between calls,
keeping the turn throughout, so no other read or write interleaves with
a batch while ``/metrics``, ``/healthz`` and request parsing stay live.
Its connection stops reading until that task has answered, which keeps
responses in order; a client that stops reading its responses
(``pause_writing``) stops the server reading its requests too.  A write
batch is validated in full before its first chunk, so a refused batch
applies nothing.  A partial request (head or body) older than
``_REQUEST_TIMEOUT_S`` gets 408 and the connection closes; an idle
keep-alive connection is never timed out.

An engine answer is exact or an error.  Any exception the engine call
raises — a library error or a bug — answers 500 (or 400 / 415 for the
request's own fault), and the connection stays open for the next
request.

``/healthz`` reports the same verdict as ``repro top --once`` — both go
through :func:`repro.obs.slo.evaluate_health`, so the CLI and the
endpoint cannot drift; it runs on the loop without taking the turn.
``/metrics`` reuses the registry's Prometheus exposition
(``?format=json`` for the JSON mirror plus server counters).
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Any
from urllib.parse import parse_qs, urlsplit

import numpy as np

from ..exceptions import (
    BadRequestError,
    DimensionMismatchError,
    InvalidRangeError,
    OutOfBoundsError,
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

#: Request-line + headers ceiling.
MAX_HEAD_BYTES = 32 << 10

#: Items per engine call of a batch: at least every method's batch
#: crossover (the largest class constant is ``ddc``'s 257), and small
#: enough that the slowest chunk measured (``ddc`` 64³, see
#: ``docs/serving.md``) keeps the loop answering ``/metrics`` inside a
#: second.
_CHUNK = 512

#: Seconds a connection may hold a partial request (head or body).
_REQUEST_TIMEOUT_S = 10.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

#: Engine errors that are the request's fault.
_CLIENT_ERRORS = (
    BadRequestError,
    OutOfBoundsError,
    InvalidRangeError,
    DimensionMismatchError,
)


class _HttpRequest:
    """One framed request: line, lowercased headers, raw body."""

    __slots__ = ("method", "path", "query", "headers", "body", "keep_alive")

    def __init__(self, method, path, query, headers, body, keep_alive):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive


class _Work:
    """The engine work a routed request still has to do: ``call`` over
    ``items`` under the engine turn, then ``finish(parts)`` builds the
    response from each call's result."""

    __slots__ = ("call", "items", "finish")

    def __init__(self, call, items: tuple, finish) -> None:
        self.call = call
        self.items = items
        self.finish = finish


def _response_bytes(
    codec: Codec, status: int, body: Any, extra: dict, keep_alive: bool
) -> bytes:
    if isinstance(body, str):
        payload = body.encode("utf-8")
        content_type = extra.pop("Content-Type", "text/plain")
    else:
        payload = codec.encode(body)
        content_type = extra.pop("Content-Type", codec.content_type)
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
    )
    for name, value in extra.items():
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1") + payload


class _Connection(asyncio.Protocol):
    """One client connection: frames requests out of its own buffer and
    hands each to :meth:`CubeServer._answer`, in arrival order.

    Reading pauses while a request's task is in flight or the transport
    has asked for a pause (``pause_writing``), and resumes when both
    are over.
    """

    __slots__ = ("server", "transport", "buffer", "task", "timer", "write_paused")

    def __init__(self, server: "CubeServer") -> None:
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        #: The request answering in a task; reading waits for it.
        self.task: asyncio.Task | None = None
        #: The partial request's deadline (see ``_REQUEST_TIMEOUT_S``).
        self.timer: asyncio.TimerHandle | None = None
        self.write_paused = False

    # asyncio.Protocol callbacks

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc) -> None:
        self.server._connections.discard(self)
        self._disarm()

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._answer_buffered()

    def pause_writing(self) -> None:
        self.write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        self._answer_buffered()

    # Requests

    def _answer_buffered(self) -> None:
        """Answer whole requests off the buffer until one has to wait."""
        transport = self.transport
        while (
            self.task is None
            and not self.write_paused
            and not transport.is_closing()
        ):
            request = self._frame()
            if request is None:
                break
            task = self.server._answer(self, request)
            if task is not None:
                self.task = task
                task.add_done_callback(self._answered)
        if self.task is not None or self.write_paused:
            transport.pause_reading()
        else:
            transport.resume_reading()

    def _answered(self, task: asyncio.Task) -> None:
        self.task = None
        if task.cancelled():
            self.transport.close()
        elif task.exception() is not None:
            self.transport.close()
            task.result()  # a bug: surface it through the loop's handler
        else:
            self._answer_buffered()

    def send(self, payload: bytes, keep_alive: bool) -> None:
        if self.transport.is_closing():
            return
        self.transport.write(payload)
        if not keep_alive:
            self.transport.close()

    def _frame(self) -> _HttpRequest | None:
        """Cut the next whole request off the buffer.

        Returns ``None`` while it is incomplete — arming the partial
        request's deadline — and after refusing a request whose framing
        is broken (which closes the connection).
        """
        buffer = self.buffer
        if not buffer:
            return None
        end = buffer.find(b"\r\n\r\n")
        if end > MAX_HEAD_BYTES or (end < 0 and len(buffer) > MAX_HEAD_BYTES):
            return self._refuse(431, "request head too large")
        if end < 0:
            self._arm()
            return None
        lines = buffer[:end].decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return self._refuse(400, "malformed request line")
        method, target, version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            return self._refuse(
                501, "Transfer-Encoding is not supported; send Content-Length"
            )
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            return self._refuse(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            return self._refuse(413, "request body too large")
        total = end + 4 + length
        if len(buffer) < total:
            self._arm()
            return None
        self._disarm()
        body = bytes(buffer[end + 4 : total])
        del buffer[:total]
        if "?" in target or not target.startswith("/"):
            split = urlsplit(target)
            path, query = split.path, parse_qs(split.query)
        else:
            path, query = target, {}
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            keep_alive = connection == "keep-alive"
        else:
            keep_alive = connection != "close"
        return _HttpRequest(method.upper(), path, query, headers, body, keep_alive)

    def _refuse(self, status: int, message: str) -> None:
        """Answer a framing error and close: the stream cannot be trusted
        past it."""
        self._disarm()
        payload = _response_bytes(
            default_codec(), status, error_body(status, message), {}, False
        )
        self.send(payload, keep_alive=False)

    def _arm(self) -> None:
        if self.timer is None:
            self.timer = asyncio.get_running_loop().call_later(
                _REQUEST_TIMEOUT_S, self._refuse, 408, "request not completed in time"
            )

    def _disarm(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


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
        self.drained = 0
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self._busy = 0
        self._connections: set[_Connection] = set()
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
            "Admission decisions: throttled (429), overflow (503).",
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
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
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
        if drain:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.policy.drain_seconds
            while self._busy > 0 and loop.time() < deadline:
                await asyncio.sleep(0.005)
            self.drained += 1
        connections = list(self._connections)
        tasks = [conn.task for conn in connections if conn.task is not None]
        for conn in connections:
            conn.transport.close()
        # A request still in a task past the drain finds its connection
        # closed; cancellation is only the stragglers' path.
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        await self._server.wait_closed()
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
            # Constant since single-flight coalescing and load shedding
            # were removed; kept because benchmarks/e2e/served.py reads
            # them, until ROADMAP item 8(g)/(i) retires them.
            "coalesce_leaders": 0,
            "coalesce_followers": 0,
            "shed_responses": 0,
            "inflight": self.gate.inflight,
            "waiting": self.gate.waiting,
            "peak_pressure": self.gate.peak_pressure,
            "overflow_rejected": self.gate.rejected,
            "throttled": self.buckets.throttled,
            "tenants": len(self.buckets),
        }

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------

    def _answer(self, conn: _Connection, request: _HttpRequest):
        """Answer ``request`` inline when it needs no wait; otherwise
        return the task that answers it."""
        start = self.obs.clock.now()
        self._busy += 1
        self._inflight_gauge.set(self._busy)
        codec = default_codec()
        try:
            headers = request.headers
            codec = codec_for(headers.get("accept") or headers.get("content-type"))
            outcome = self._route(request, codec)
            if type(outcome) is _Work:
                if len(outcome.items) > _CHUNK or not self.gate.try_acquire():
                    return asyncio.get_running_loop().create_task(
                        self._answer_later(conn, request, codec, start, outcome)
                    )
                outcome = outcome.finish(self._run_now(outcome))
        except Exception as exc:
            outcome = self._failure(exc)
        except BaseException:
            self._settle()
            raise
        self._respond(conn, request, codec, start, outcome)
        return None

    async def _answer_later(self, conn, request, codec, start, work: _Work) -> None:
        try:
            outcome = work.finish(await self._gated(work.call, work.items))
        except Exception as exc:
            outcome = self._failure(exc)
        except BaseException:  # cancelled: no answer, no longer in flight
            self._settle()
            raise
        self._respond(conn, request, codec, start, outcome)

    def _respond(self, conn, request, codec, start, outcome: tuple) -> None:
        status, body, extra = outcome
        route = request.path
        instruments = self._route_instruments.get((route, status))
        if instruments is None:
            instruments = self._route_instruments[(route, status)] = (
                self._requests_total.labels(route=route, code=str(status)),
                self._request_seconds.labels(route=route),
            )
        requests, seconds = instruments
        requests.inc()
        seconds.observe(max(0.0, self.obs.clock.now() - start))
        keep_alive = request.keep_alive and not self._draining
        conn.send(_response_bytes(codec, status, body, extra, keep_alive), keep_alive)
        self._settle()

    def _settle(self) -> None:
        self._busy -= 1
        self._inflight_gauge.set(self._busy)

    @staticmethod
    def _failure(exc: Exception) -> tuple:
        """The response an error raised while answering maps to: any
        error that is not the request's fault is a 500."""
        if isinstance(exc, _CLIENT_ERRORS):
            return 400, error_body(400, str(exc)), {}
        if isinstance(exc, UnsupportedMediaTypeError):
            return 415, error_body(415, str(exc)), {}
        return 500, error_body(500, f"{type(exc).__name__}: {exc}"), {}

    def _route(self, request: _HttpRequest, codec: Codec):
        """A response ``(status, body, extra)``, or the :class:`_Work`
        a ``/query`` or ``/update`` still has to do."""
        path, method = request.path, request.method
        if path == "/query":
            if method != "POST":
                return 405, error_body(405, "POST required"), {}
            return self._handle_query(request, codec)
        if path == "/update":
            if method != "POST":
                return 405, error_body(405, "POST required"), {}
            return self._handle_update(request, codec)
        if path == "/healthz":
            if method != "GET":
                return 405, error_body(405, "GET required"), {}
            return self._handle_healthz()
        if path == "/metrics":
            if method != "GET":
                return 405, error_body(405, "GET required"), {}
            return self._handle_metrics(request)
        return 404, error_body(404, f"no route {path!r}"), {}

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    @staticmethod
    def _payload(request: _HttpRequest, codec: Codec):
        """The decoded body; ``codec`` already answers ``Content-Type``
        unless ``Accept`` named another type."""
        content_type = request.headers.get("content-type")
        accept = request.headers.get("accept")
        if accept and accept != content_type:
            codec = codec_for(content_type)
        return codec.decode(request.body)

    def _handle_query(self, request: _HttpRequest, codec: Codec):
        parsed = decode_query(self._payload(request, codec), self.dims)
        denied = self._admit(parsed.tenant)
        if denied is not None:
            return denied
        if self.gate.would_overflow():
            return self._overflow()
        read = self.engine.range_sum_many if parsed.batch else self._range_sum
        return _Work(read, parsed.ranges, partial(self._query_answered, parsed.batch))

    def _range_sum(self, ranges) -> list:
        ((low, high),) = ranges
        return [self.engine.range_sum(low, high)]

    @staticmethod
    def _query_answered(batch: bool, parts: list) -> tuple:
        body = query_response([value for part in parts for value in part], batch=batch)
        return 200, body, {}

    def _handle_update(self, request: _HttpRequest, codec: Codec):
        parsed = decode_update(
            self._payload(request, codec), self.dims, integer=self._integer_deltas
        )
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
        response = (200, update_response(len(updates)), {})
        return _Work(self.engine.add_many, updates, lambda _: response)

    def _handle_healthz(self):
        document = evaluate_health(self.watchdog)
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
            {"Retry-After": f"{self.policy.retry_after_seconds:g}"},
        )

    def _run_now(self, work: _Work) -> list:
        """Run a one-chunk request under a turn ``try_acquire`` took."""
        try:
            return [work.call(work.items)]
        finally:
            self.gate.release()

    async def _gated(self, call, items: tuple) -> list:
        """Run ``call`` over ``items`` on the loop under the engine turn.

        ``call`` takes at most ``_CHUNK`` items at a time, with a yield
        between calls; the turn is held from the first call to the last,
        so no other engine call interleaves with a batch.  Returns each
        call's result in order.  While the request holds or waits for
        the turn, pressure and ``peak_pressure`` count it.
        """
        await self.gate.acquire()
        try:
            parts = [call(items[:_CHUNK])]
            for start in range(_CHUNK, len(items), _CHUNK):
                await asyncio.sleep(0)
                parts.append(call(items[start : start + _CHUNK]))
            return parts
        finally:
            self.gate.release()
