"""Single-flight coalescing of identical in-flight engine calls.

A hot dashboard range is requested by hundreds of clients at once; the
engine's epoch-validated cache already makes the *second* computation
free, but under concurrency the first N arrivals all miss together and
fan out N identical engine calls.  :class:`SingleFlight` closes that
window: the first arrival for a key becomes the **leader** and runs the
engine call; every concurrent arrival with the same key becomes a
**follower** that awaits the leader's future and receives the same
answer — one engine call total, N responses.

Keys are ``(tenant, method, lo, hi)`` tuples (built by the server), so
coalescing never crosses tenants or mixes operations.  Semantics match
the usual single-flight contract (groupcache et al.): a follower
observes the value of the flight it *joined*, which may predate a write
that arrived after the leader started — exactly-as-stale as any answer
computed a microsecond earlier.  Leaders' exceptions propagate to every
follower of that flight; the next arrival after settlement starts a
fresh flight.

Single-threaded by design: all bookkeeping runs on the event loop, so
no locks are needed.  A flight can gather followers only while its
supplier is suspended, i.e. while its engine call waits in the server's
thread pool; a call the server runs on the loop opens and settles its
flight with no yield in between, so it is always a leader alone.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Hashable

__all__ = ["SingleFlight"]


class SingleFlight:
    """In-flight dedup: one supplier run per key, results fanned out."""

    def __init__(self) -> None:
        self._flights: dict[Hashable, asyncio.Future] = {}
        self.leaders = 0
        self.followers = 0

    def __len__(self) -> int:
        """Flights currently in the air."""
        return len(self._flights)

    def holds(self, key: Hashable) -> bool:
        """True when a flight for ``key`` is currently in the air.

        Lets the server skip admission for would-be followers — joining
        an existing flight adds no engine work, so it must not be shed.
        """
        return key in self._flights

    async def run(
        self, key: Hashable, supplier: Callable[[], Awaitable[Any]]
    ) -> tuple[Any, bool]:
        """Return ``(value, coalesced)`` for ``key``.

        ``coalesced`` is True when this call joined an existing flight
        instead of running ``supplier``.  A follower is shielded from
        its own cancellation propagating into the shared flight; the
        leader's cancellation settles the flight with that error.
        """
        existing = self._flights.get(key)
        if existing is not None:
            self.followers += 1
            return await asyncio.shield(existing), True
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._flights[key] = future
        self.leaders += 1
        try:
            value = await supplier()
        except BaseException as exc:
            # Settle before unlinking is not required — unlinking first
            # means a request arriving during leader unwind starts a
            # clean flight instead of inheriting this failure.
            self._flights.pop(key, None)
            if not future.done():
                future.set_exception(exc)
                # Mark retrieved: with zero followers nobody will await
                # the future, and the loop would log a spurious
                # "exception was never retrieved" at GC time.
                future.exception()
            raise
        self._flights.pop(key, None)
        if not future.done():
            future.set_result(value)
        return value, False
