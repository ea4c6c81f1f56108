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
    "WorkerCrashedError",
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


class WorkerCrashedError(ReproError, RuntimeError):
    """A shard-pool worker process died in a way the caller must see.

    Raised parent-side by :class:`~repro.engine.process.ProcessExecutor`
    when a worker died mid-apply and left its shard's slab holding a
    torn batch (the seqlock left odd), or when a worker's pipe broke
    while it accepted a write.  A torn batch cannot be replayed, so that
    shard stays failed: every later read, write or fence on it raises
    this again rather than serve a wrong sum.
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
