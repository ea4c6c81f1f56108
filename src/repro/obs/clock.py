"""Injectable monotonic clocks: the only sanctioned time source for hot paths.

Every latency the observability layer records flows through a clock
object injected at construction time, never through a direct
``time.perf_counter()`` call inside the instrumented modules.  That
inversion buys two things:

* **testability** — a :class:`ManualClock` makes span durations and
  histogram contents exact in tests, so the tracing and slow-query
  machinery is verified deterministically instead of with sleeps;
* **enforceability** — lint rule REP008 can mechanically forbid direct
  clock calls inside the hot-path packages (``core/``, ``methods/``,
  ``engine/``), because the one legitimate way to read the time is
  ``obs.clock.now()``.

:class:`MonotonicClock` is the production implementation and the only
place in the serving stack that touches :func:`time.perf_counter`.
"""

from __future__ import annotations

import time

from ..exceptions import ConfigurationError

__all__ = ["MonotonicClock", "ManualClock"]


class MonotonicClock:
    """Production clock: a thin veneer over :func:`time.perf_counter`."""

    __slots__ = ()

    #: Seconds on a monotonic, high-resolution timeline.  Bound straight
    #: to the C function, so a read on the hot path costs no Python frame.
    now = staticmethod(time.perf_counter)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "MonotonicClock()"


class ManualClock:
    """Test clock: time advances only when told to.

    Args:
        start: initial reading in seconds.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        """The current manual reading."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward by ``seconds`` (monotonicity is enforced)."""
        if seconds < 0:
            raise ConfigurationError(
                f"a monotonic clock cannot go backwards (advance {seconds})"
            )
        self._now += seconds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ManualClock(now={self._now})"
