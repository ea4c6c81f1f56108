"""Exception hierarchy for the ``repro`` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures without also catching unrelated Python
errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidShapeError",
    "ConfigurationError",
    "OutOfBoundsError",
    "InvalidRangeError",
    "DimensionMismatchError",
    "UnknownMethodError",
    "SchemaError",
    "StructureError",
    "ResilienceError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "ShardFailedError",
    "WorkerCrashedError",
    "InjectedFaultError",
    "ServeError",
    "BadRequestError",
    "UnsupportedMediaTypeError",
]


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class InvalidShapeError(ReproError, ValueError):
    """A cube shape is empty, non-positive, or otherwise malformed."""


class ConfigurationError(ReproError, ValueError):
    """A constructor or function argument has an invalid value.

    Subclasses :class:`ValueError` so callers that predate the hierarchy
    (``except ValueError``) keep working.
    """


class OutOfBoundsError(ReproError, IndexError):
    """A cell or range falls outside the logical shape of a cube."""


class InvalidRangeError(ReproError, ValueError):
    """A query range is malformed (e.g. low corner above high corner)."""


class DimensionMismatchError(ReproError, ValueError):
    """A cell, range, or array has the wrong number of dimensions."""


class UnknownMethodError(ReproError, KeyError):
    """A range-sum method name is not present in the registry."""


class SchemaError(ReproError, ValueError):
    """An OLAP schema definition or lookup is invalid."""


class StructureError(ReproError, AssertionError):
    """An internal structural invariant was violated.

    Raised by the ``validate()`` methods of the core data structures; a
    user should never see this unless the library has a bug.
    """


class ResilienceError(ReproError, RuntimeError):
    """Base class for serving-resilience failures (see ``repro.engine``)."""


class DeadlineExceededError(ResilienceError, TimeoutError):
    """A request's deadline budget ran out before every shard answered.

    Subclasses :class:`TimeoutError` so generic timeout handling in
    callers keeps working.
    """


class CircuitOpenError(ResilienceError):
    """A shard's circuit breaker is open and the call was not attempted."""


class ShardFailedError(ResilienceError):
    """A shard sub-operation failed after exhausting its retry budget."""


class WorkerCrashedError(ResilienceError):
    """A shard-pool worker process died during (or before) a sub-operation.

    Raised parent-side by :class:`~repro.engine.process.ProcessExecutor`
    when the owning worker's pipe breaks mid-call.  The shard's state
    lives in the shared-memory slab store, so the failure is transient:
    the next attempt respawns the worker, which reattaches and answers
    exactly — which is why the resilient fan-out treats this like any
    other retryable shard failure.
    """


class InjectedFaultError(ResilienceError):
    """A deterministic fault raised by the test/chaos FaultInjector.

    Never raised by production code paths; exists so resilience tests
    can distinguish injected faults from genuine shard failures.
    """


class ServeError(ReproError, RuntimeError):
    """Base class for serving front-end failures (see ``repro.serve``)."""


class BadRequestError(ServeError, ValueError):
    """A serving request is malformed: bad wire payload, unknown
    operation, or cube-shape mismatch.  Maps to HTTP 400."""


class UnsupportedMediaTypeError(ServeError, ValueError):
    """A request asked for a wire codec the server does not have (e.g.
    msgpack when the optional ``msgpack`` package is not installed).
    Maps to HTTP 415."""
