"""Wire format for the serving front-end: codecs + request validation.

One request/response vocabulary, two byte encodings:

* ``application/json`` — always available, the default.
* ``application/msgpack`` — the binary twin, registered only when the
  ``msgpack`` package is installed (``pip install repro[serve]``);
  without it the server is JSON-only and a msgpack request gets 415.

Both codecs carry the *same* documents — :func:`decode_query` /
:func:`decode_update` validate the decoded payload into plain tuples
before anything touches the engine, and responses are built from
JSON-safe scalars only (numpy values are unwrapped at the boundary).
See ``docs/serving.md`` for the full request/response schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..exceptions import BadRequestError, UnsupportedMediaTypeError

__all__ = [
    "Codec",
    "available_codecs",
    "codec_for",
    "default_codec",
    "QueryRequest",
    "UpdateRequest",
    "decode_query",
    "decode_update",
    "query_response",
    "update_response",
    "error_body",
]

JSON_CONTENT_TYPE = "application/json"
MSGPACK_CONTENT_TYPE = "application/msgpack"


@dataclass(frozen=True)
class Codec:
    """One wire encoding: a content type plus encode/decode callables."""

    name: str
    content_type: str
    encode: Callable[[Any], bytes]
    decode: Callable[[bytes], Any]


#: One compact encoder for every response, built once.
_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _json_encode(obj: Any) -> bytes:
    return _JSON_ENCODER.encode(obj).encode("utf-8")


def _json_decode(data: bytes) -> Any:
    try:
        return json.loads(data)
    except (ValueError, UnicodeDecodeError) as exc:
        raise BadRequestError(f"malformed JSON body: {exc}") from exc


def _build_codecs() -> dict[str, Codec]:
    codecs = {
        JSON_CONTENT_TYPE: Codec(
            "json", JSON_CONTENT_TYPE, _json_encode, _json_decode
        )
    }
    try:
        import msgpack  # type: ignore[import-not-found]
    except ImportError:
        return codecs

    def _msgpack_decode(data: bytes) -> Any:
        try:
            return msgpack.unpackb(data, strict_map_key=False)
        except Exception as exc:
            raise BadRequestError(f"malformed msgpack body: {exc}") from exc

    codecs[MSGPACK_CONTENT_TYPE] = Codec(
        "msgpack", MSGPACK_CONTENT_TYPE, msgpack.packb, _msgpack_decode
    )
    return codecs


_CODECS = _build_codecs()


def available_codecs() -> tuple[str, ...]:
    """Content types the server accepts, in preference order."""
    return tuple(_CODECS)


def default_codec() -> Codec:
    return _CODECS[JSON_CONTENT_TYPE]


def codec_for(content_type: str | None) -> Codec:
    """Resolve a ``Content-Type``/``Accept`` value to a codec.

    ``None``/empty and ``*/*`` mean JSON.  Parameters (``; charset=``)
    are ignored.  An unknown or disabled type raises
    :class:`~repro.exceptions.UnsupportedMediaTypeError` (HTTP 415).
    """
    if not content_type:
        return default_codec()
    base = content_type.split(";", 1)[0].strip().lower()
    if base in ("", "*/*", "application/*"):
        return default_codec()
    codec = _CODECS.get(base)
    if codec is None:
        raise UnsupportedMediaTypeError(
            f"unsupported wire format {base!r} "
            f"(available: {', '.join(_CODECS)})"
        )
    return codec


# ----------------------------------------------------------------------
# Request validation
# ----------------------------------------------------------------------

#: Upper bound on cells per batch request — one request must not be able
#: to queue unbounded engine work past the admission controller.
MAX_BATCH = 4096

DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class QueryRequest:
    """A validated read: one range per entry of ``ranges``."""

    tenant: str
    ranges: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    batch: bool  # was the payload the batch form?


@dataclass(frozen=True)
class UpdateRequest:
    """A validated write batch: ``(cell, delta)`` pairs."""

    tenant: str
    updates: tuple[tuple[tuple[int, ...], float], ...]


def _require_mapping(payload: Any) -> dict:
    if not isinstance(payload, dict):
        raise BadRequestError(
            f"request body must be an object, got {type(payload).__name__}"
        )
    return payload


def _tenant_of(payload: dict) -> str:
    tenant = payload.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not tenant or len(tenant) > 128:
        raise BadRequestError("'tenant' must be a non-empty string (<=128 chars)")
    return tenant


def _cell(value: Any, field: str, dims: int) -> tuple[int, ...]:
    if isinstance(value, int) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, (list, tuple)) or not value:
        raise BadRequestError(f"'{field}' must be a non-empty coordinate list")
    out = []
    for coord in value:
        if isinstance(coord, bool) or not isinstance(coord, int):
            raise BadRequestError(f"'{field}' coordinates must be integers")
        out.append(coord)
    if len(out) != dims:
        raise BadRequestError(
            f"'{field}' has {len(out)} coordinate(s), cube has {dims} dimension(s)"
        )
    return tuple(out)


def decode_query(payload: Any, dims: int) -> QueryRequest:
    """Validate a ``/query`` payload into a :class:`QueryRequest`.

    Accepted forms (``tenant`` optional in all of them)::

        {"op": "range_sum", "low": [...], "high": [...]}
        {"op": "prefix_sum", "cell": [...]}
        {"ranges": [[[lo...], [hi...]], ...]}          # batch
    """
    payload = _require_mapping(payload)
    tenant = _tenant_of(payload)
    if "ranges" in payload:
        raw = payload["ranges"]
        if not isinstance(raw, (list, tuple)) or not raw:
            raise BadRequestError("'ranges' must be a non-empty list")
        if len(raw) > MAX_BATCH:
            raise BadRequestError(
                f"batch of {len(raw)} exceeds the {MAX_BATCH}-query limit"
            )
        ranges = []
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise BadRequestError(
                    "each 'ranges' entry must be a [low, high] pair"
                )
            ranges.append(
                (_cell(entry[0], "low", dims), _cell(entry[1], "high", dims))
            )
        return QueryRequest(tenant, tuple(ranges), batch=True)
    op = payload.get("op", "range_sum")
    if op == "range_sum":
        if "low" not in payload or "high" not in payload:
            raise BadRequestError("range_sum requires 'low' and 'high'")
        low = _cell(payload["low"], "low", dims)
        high = _cell(payload["high"], "high", dims)
        return QueryRequest(tenant, ((low, high),), batch=False)
    if op == "prefix_sum":
        if "cell" not in payload:
            raise BadRequestError("prefix_sum requires 'cell'")
        cell = _cell(payload["cell"], "cell", dims)
        return QueryRequest(tenant, (((0,) * dims, cell),), batch=False)
    raise BadRequestError(
        f"unknown op {op!r} (expected 'range_sum' or 'prefix_sum')"
    )


def decode_update(payload: Any, dims: int, integer: bool = False) -> UpdateRequest:
    """Validate an ``/update`` payload into an :class:`UpdateRequest`.

    Accepted forms::

        {"cell": [...], "delta": n}
        {"updates": [[[cell...], delta], ...]}         # batch

    ``integer`` is the numeric contract of an integer cube: every delta
    must be a whole number within int64 (``2.0`` is accepted as ``2``),
    so a fraction is refused here instead of being truncated by the
    cube's dtype.  A float cube takes any finite number; NaN and the
    infinities are refused.
    """
    payload = _require_mapping(payload)
    tenant = _tenant_of(payload)
    if "updates" in payload:
        raw = payload["updates"]
        if not isinstance(raw, (list, tuple)) or not raw:
            raise BadRequestError("'updates' must be a non-empty list")
        if len(raw) > MAX_BATCH:
            raise BadRequestError(
                f"batch of {len(raw)} exceeds the {MAX_BATCH}-update limit"
            )
        updates = []
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise BadRequestError(
                    "each 'updates' entry must be a [cell, delta] pair"
                )
            updates.append(
                (_cell(entry[0], "cell", dims), _delta(entry[1], integer))
            )
        return UpdateRequest(tenant, tuple(updates))
    if "cell" not in payload or "delta" not in payload:
        raise BadRequestError("update requires 'cell' and 'delta'")
    cell = _cell(payload["cell"], "cell", dims)
    return UpdateRequest(tenant, ((cell, _delta(payload["delta"], integer)),))


_INT64_LIMIT = 2**63


def _delta(value: Any, integer: bool) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError("'delta' must be a number")
    if not integer:
        # NaN or an infinity (or an int past float range) would poison
        # every later sum over the cell, and JSON cannot carry the answer.
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise BadRequestError(f"'delta' must be a finite number, got {value!r}")
        return value
    if isinstance(value, float) and not value.is_integer():
        raise BadRequestError(
            f"'delta' must be a whole number on an integer cube, got {value!r}"
        )
    if not -_INT64_LIMIT <= value < _INT64_LIMIT:
        raise BadRequestError(f"'delta' {value!r} is outside the cube's int64 range")
    return int(value)


# ----------------------------------------------------------------------
# Response documents
# ----------------------------------------------------------------------


def _plain(value: Any) -> Any:
    """Unwrap one engine answer into a JSON-safe scalar."""
    value = getattr(value, "item", lambda: value)()
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def query_response(
    results: Sequence[Any], *, batch: bool, coalesced: bool = False, shed: bool = False
) -> dict:
    """The ``/query`` response document.

    An answer is exact or the request failed, so the document carries
    values only.  The ``coalesced`` and ``shed`` fields read a constant
    false from the server; they stay on the wire, and as keywords here,
    because ``benchmarks/e2e/served.py`` passes both, until ROADMAP
    item 8(g) retires them.
    """
    entries = [{"value": _plain(value)} for value in results]
    body: dict[str, Any] = {"results": entries} if batch else entries[0]
    body["coalesced"] = coalesced
    body["shed"] = shed
    return body


def update_response(applied: int) -> dict:
    return {"ok": True, "applied": applied}


def error_body(status: int, message: str) -> dict:
    return {"error": message, "status": status}
