"""HTTP serving front-end for the sharded engine.

The roadmap's serving layer: :class:`CubeServer` speaks HTTP/1.1 JSON
(and msgpack when the package is installed) over a
:class:`~repro.engine.ShardedEngine` from one event-loop thread, with
per-tenant token-bucket admission (429), one engine turn that every
engine call holds, and a bound on the demand waiting for it (503).
:class:`ServeClient` is the matching client used by the load
generator, the CI smoke job, and the tests.

See ``docs/serving.md`` for the wire format and operational semantics.
"""

from .admission import AdmissionPolicy, ConcurrencyGate, TenantBuckets, TokenBucket
from .client import ServeClient, ServeResponse
from .server import CubeServer
from .wire import (
    Codec,
    QueryRequest,
    UpdateRequest,
    available_codecs,
    codec_for,
    decode_query,
    decode_update,
    default_codec,
)

__all__ = [
    "AdmissionPolicy",
    "Codec",
    "ConcurrencyGate",
    "CubeServer",
    "QueryRequest",
    "ServeClient",
    "ServeResponse",
    "TenantBuckets",
    "TokenBucket",
    "UpdateRequest",
    "available_codecs",
    "codec_for",
    "decode_query",
    "decode_update",
    "default_codec",
]
