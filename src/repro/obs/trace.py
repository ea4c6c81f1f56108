"""Span-based tracing: one request becomes one tree of timed spans.

A :class:`Span` is a named, timed region with arbitrary key/value
attributes (shard id, cache outcome, node-visit deltas).  Spans nest:
the tracer keeps one stack of open spans, a new span becomes a child of
the stack top, and a span opened with an explicit ``parent=`` attaches
under that span instead.  One thread owns a tracer, as it owns the
engine that feeds it (``docs/api.md``), so the stack is a plain list.

Finished *root* spans land in a bounded ring buffer (oldest evicted
first), so a long serving run keeps a recent window of complete traces
at O(capacity) memory.  Head-based sampling (``sample_every``) decides
at the root whether a trace is recorded at all; an unsampled root pushes
a null marker onto the stack so its entire subtree is suppressed for the
price of one list append.  A served engine request is an ``engine.*``
root with one ``shard.range_sum`` child per shard it touched.

The tracer never reads the wall clock itself — timestamps come from the
injected clock (see :mod:`repro.obs.clock` and lint rule REP008).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterator, Sequence

from ..exceptions import ConfigurationError
from .clock import MonotonicClock

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "render_span_tree",
    "sorted_by_duration",
]

#: Sentinel distinguishing "no parent passed" from "parent is None".
_UNSET = object()


class Span:
    """One named, timed, attributed region of a trace.

    ``trace_id`` identifies the whole request tree (every span under one
    root shares it); ``span_id`` is unique per span within a tracer.

    A span opened by :meth:`Tracer.span` is its own context manager:
    entering pushes it on the tracer's span stack, exiting stamps its
    end and pops it (and retains it, when it is a root).
    """

    __slots__ = (
        "name", "start", "end", "attributes", "children", "trace_id",
        "span_id", "_tracer", "_stack", "_root",
    )

    def __init__(
        self,
        name: str,
        start: float,
        trace_id: int = 0,
        span_id: int = 0,
        attributes: dict | None = None,
    ) -> None:
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attributes: dict[str, object] = (
            attributes if attributes is not None else {}
        )
        self.children: list["Span"] = []
        self.trace_id = trace_id
        self.span_id = span_id
        self._tracer: "Tracer | None" = None
        self._stack: list | None = None
        self._root = False

    def __enter__(self) -> "Span":
        self._stack.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        tracer = self._tracer
        self.end = tracer.clock.now()
        self._stack.pop()
        if self._root:
            tracer._finished.append(self)

    def set(self, **attributes) -> None:
        """Attach attributes (merging over earlier values)."""
        self.attributes.update(attributes)

    @property
    def duration(self) -> float:
        """Seconds between start and finish (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, duration={self.duration:.6f}, "
            f"children={len(self.children)})"
        )


class _NullSpan:
    """Do-nothing span: the subtree of an unsampled or disabled trace.

    It is also its own context manager — ``with NULL_SPAN as span``
    yields it and touches no span stack — which is what a disabled
    tracer, and an engine request with obs off, open.
    """

    __slots__ = ()

    name = "(unsampled)"
    start = 0.0
    end = 0.0
    duration = 0.0
    attributes: dict = {}
    children: tuple = ()
    trace_id = 0
    span_id = 0

    def set(self, **attributes) -> None:
        pass

    def walk(self):
        return iter(())

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_SPAN = _NullSpan()


class _NullHandle:
    """Context manager for a suppressed span.

    Pushes :data:`NULL_SPAN` so descendants see a (null) parent and
    suppress themselves instead of becoming orphan roots.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __enter__(self) -> _NullSpan:
        self._tracer._stack.append(NULL_SPAN)
        return NULL_SPAN

    def __exit__(self, *exc_info) -> None:
        self._tracer._stack.pop()


class Tracer:
    """Factory and ring buffer for spans.

    Args:
        clock: injected time source (defaults to a fresh monotonic
            clock; the :class:`~repro.obs.Observability` facade passes
            its own so every component shares one timeline).
        capacity: finished root spans retained (oldest evicted first).
        sample_every: head sampling — record every Nth root trace.  1
            records everything; N > 1 bounds tracing overhead on hot
            paths while metrics stay exact.
    """

    def __init__(
        self,
        clock=None,
        capacity: int = 256,
        sample_every: int = 1,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"tracer capacity must be >= 1, got {capacity}")
        if sample_every < 1:
            raise ConfigurationError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.clock = clock if clock is not None else MonotonicClock()
        self.capacity = capacity
        self.sample_every = sample_every
        self._finished: deque[Span] = deque(maxlen=capacity)
        #: Open spans, innermost last.
        self._stack: list = []
        self._roots_seen = 0
        self._null_handle = _NullHandle(self)
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------

    def span(self, name: str, parent=_UNSET, **attributes):
        """Open a span as a context manager yielding the :class:`Span`.

        Without ``parent=`` the span nests under the innermost open span
        (or starts a new sampled root).  Pass the parent explicitly to
        attach under a span that is not the stack top.
        """
        stack = self._stack
        if parent is _UNSET:
            parent = stack[-1] if stack else None
        if parent is None:
            if self.sample_every != 1 and not self._sample_root():
                return self._null_handle
            span = Span(
                name, self.clock.now(), next(self._trace_ids),
                next(self._span_ids), attributes,
            )
            span._root = True
        elif parent is NULL_SPAN:
            return self._null_handle
        else:
            span = Span(
                name, self.clock.now(), parent.trace_id, next(self._span_ids),
                attributes,
            )
            parent.children.append(span)
        span._tracer = self
        span._stack = stack
        return span

    def current(self) -> Span | _NullSpan | None:
        """The innermost open span, if any."""
        stack = self._stack
        return stack[-1] if stack else None

    def _sample_root(self) -> bool:
        self._roots_seen += 1
        return self._roots_seen % self.sample_every == 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def finished_roots(self) -> list[Span]:
        """Retained finished root spans, oldest first."""
        return list(self._finished)

    def clear(self) -> None:
        """Drop every retained trace (open spans are unaffected)."""
        self._finished.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(capacity={self.capacity}, "
            f"sample_every={self.sample_every}, "
            f"retained={len(self._finished)})"
        )


class NullTracer:
    """Disabled-mode tracer: every span is the shared null span."""

    def span(self, name: str, parent=_UNSET, **attributes):
        return NULL_SPAN

    def current(self):
        return None

    def finished_roots(self) -> list:
        return []

    def clear(self) -> None:
        pass


def _format_attributes(attributes: dict) -> str:
    if not attributes:
        return ""
    inner = ", ".join(f"{key}={value}" for key, value in attributes.items())
    return " {" + inner + "}"


def render_span_tree(span: Span, indent: int = 0) -> str:
    """Human-readable one-line-per-span rendering of a finished trace.

    ::

        engine.range_sum 61.2us {cache=miss}
          shard.range_sum 22.4us {queries=1, shard=0, node_visits=8, cell_ops=8}
          shard.range_sum 20.9us {queries=1, shard=1, node_visits=8, cell_ops=8}
    """
    lines: list[str] = []
    _render_into(span, indent, lines)
    return "\n".join(lines)


def _render_into(span: Span, indent: int, lines: list[str]) -> None:
    micros = span.duration * 1e6
    if micros >= 1e6:
        timing = f"{micros / 1e6:.3f}s"
    elif micros >= 1e3:
        timing = f"{micros / 1e3:.1f}ms"
    else:
        timing = f"{micros:.1f}us"
    lines.append(
        f"{'  ' * indent}{span.name} {timing}"
        f"{_format_attributes(span.attributes)}"
    )
    for child in span.children:
        _render_into(child, indent + 1, lines)


def sorted_by_duration(spans: Sequence[Span]) -> list[Span]:
    """Spans sorted slowest-first (helper for "show me the N slowest")."""
    return sorted(spans, key=lambda span: span.duration, reverse=True)
