"""A minimal asyncio client for :class:`~repro.serve.CubeServer`.

Stdlib-only, persistent-connection HTTP/1.1 — the exact counterpart of
the server's parser.  The serve tests all speak through this class, so
wire-format regressions surface as test failures rather than silent
drift between ad-hoc request builders.

One :class:`ServeClient` is one connection driven from one event loop;
N concurrent users are N clients.  The
connection reopens transparently after a server-side close (idle
timeout, drain, ``Connection: close``).
"""

from __future__ import annotations

import asyncio
from typing import Any, Sequence

from ..exceptions import ServeError
from .wire import codec_for

__all__ = ["ServeClient", "ServeResponse"]


class ServeResponse:
    """One decoded HTTP response."""

    __slots__ = ("status", "headers", "body")

    def __init__(self, status: int, headers: dict, body: Any) -> None:
        self.status = status
        self.headers = headers
        self.body = body

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def retry_after(self) -> float | None:
        value = self.headers.get("retry-after")
        return float(value) if value is not None else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServeResponse(status={self.status}, body={self.body!r})"


class ServeClient:
    """Persistent-connection client for one serve endpoint.

    Args:
        host/port: the server's bind address.
        codec: wire format name — ``"json"`` (default) or ``"msgpack"``
            (only with the ``msgpack`` package installed; otherwise
            :class:`~repro.exceptions.UnsupportedMediaTypeError`).
        tenant: tenant string stamped on every query/update.
    """

    def __init__(
        self,
        host: str,
        port: int,
        codec: str = "json",
        tenant: str = "default",
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        content_type = f"application/{codec}"
        self.codec = codec_for(content_type)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = None

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Raw request/response
    # ------------------------------------------------------------------

    async def request(
        self, method: str, path: str, payload: Any = None
    ) -> ServeResponse:
        """Send one request, reconnecting once if the connection died."""
        body = b"" if payload is None else self.codec.encode(payload)
        for attempt in (0, 1):
            if self._writer is None:
                await self._connect()
            try:
                return await self._round_trip(method, path, body)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                await self.close()
                if attempt:
                    raise
        raise ServeError("unreachable")  # pragma: no cover

    async def _round_trip(
        self, method: str, path: str, body: bytes
    ) -> ServeResponse:
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: {self.codec.content_type}\r\n"
            f"Accept: {self.codec.content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        )
        if self._writer is None or self._reader is None:
            raise ServeError("client is not connected")
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        raw_head = await self._reader.readuntil(b"\r\n\r\n")
        lines = raw_head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw_body = await self._reader.readexactly(length) if length else b""
        content_type = headers.get("content-type", "")
        if content_type.startswith("text/"):
            decoded: Any = raw_body.decode("utf-8")
        elif raw_body:
            decoded = codec_for(content_type or None).decode(raw_body)
        else:
            decoded = None
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return ServeResponse(status, headers, decoded)

    # ------------------------------------------------------------------
    # Typed helpers
    # ------------------------------------------------------------------

    async def query(
        self, low: Sequence[int], high: Sequence[int]
    ) -> ServeResponse:
        return await self.request(
            "POST",
            "/query",
            {
                "tenant": self.tenant,
                "op": "range_sum",
                "low": list(low),
                "high": list(high),
            },
        )

    async def prefix_sum(self, cell: Sequence[int]) -> ServeResponse:
        return await self.request(
            "POST",
            "/query",
            {"tenant": self.tenant, "op": "prefix_sum", "cell": list(cell)},
        )

    async def query_batch(self, ranges: Sequence) -> ServeResponse:
        return await self.request(
            "POST",
            "/query",
            {
                "tenant": self.tenant,
                "ranges": [[list(low), list(high)] for low, high in ranges],
            },
        )

    async def update(self, cell: Sequence[int], delta) -> ServeResponse:
        return await self.request(
            "POST",
            "/update",
            {"tenant": self.tenant, "cell": list(cell), "delta": delta},
        )

    async def update_many(self, updates: Sequence) -> ServeResponse:
        return await self.request(
            "POST",
            "/update",
            {
                "tenant": self.tenant,
                "updates": [[list(cell), delta] for cell, delta in updates],
            },
        )

    async def healthz(self) -> ServeResponse:
        return await self.request("GET", "/healthz")

    async def metrics(self, fmt: str = "prometheus") -> ServeResponse:
        path = "/metrics" if fmt == "prometheus" else f"/metrics?format={fmt}"
        return await self.request("GET", path)
