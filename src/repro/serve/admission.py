"""Admission control for the serving front-end.

Two independent gates stand between a parsed request and the engine:

* **Per-tenant token buckets** (:class:`TenantBuckets`) — classic
  rate + burst buckets keyed by the request's tenant string.  A tenant
  over its rate gets HTTP 429 with a ``Retry-After`` telling it when
  the next token accrues.  Buckets refill continuously on the injected
  clock (the same :mod:`repro.obs.clock` discipline the engine uses,
  so tests drive them with a ``ManualClock``).  The table is bounded:
  when more than ``max_tenants`` distinct tenants appear, the
  least-recently-seen bucket is evicted — an evicted tenant simply
  starts over with a full burst.

* **The engine turn** (:class:`ConcurrencyGate`) — one request at a
  time runs engine calls; the rest wait for the turn.  Requests holding
  or waiting for it count as demand: beyond ``max_concurrency +
  max_queue`` of them the server refuses with HTTP 503.  Their
  *pressure* (demand / ``max_concurrency``) is reported, not acted on:
  an admitted request is answered exactly or fails.

Everything here is event-loop-local state — mutated only from the
server's single loop thread, so no locks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..exceptions import ConfigurationError

__all__ = ["AdmissionPolicy", "TokenBucket", "TenantBuckets", "ConcurrencyGate"]


@dataclass(frozen=True)
class AdmissionPolicy:
    """The serving front-end's complete admission configuration.

    Args:
        tenant_rate: tokens/second refilled per tenant; ``0`` disables
            per-tenant throttling entirely.
        tenant_burst: bucket capacity — the instantaneous burst a
            tenant may spend before the rate applies.
        max_concurrency: demand (requests holding or waiting for the
            engine turn) counted as full pressure.
        max_queue: demand allowed beyond ``max_concurrency``;
            arrivals beyond that are refused with 503.
        retry_after_seconds: ``Retry-After`` floor for 503 responses
            (429 computes the exact token-accrual wait instead).
        max_tenants: bound on the bucket table (LRU-evicted beyond).
        drain_seconds: graceful-shutdown budget for in-flight requests.
    """

    tenant_rate: float = 0.0
    tenant_burst: int = 8
    max_concurrency: int = 64
    max_queue: int = 1024
    retry_after_seconds: float = 1.0
    max_tenants: int = 4096
    drain_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.tenant_rate < 0:
            raise ConfigurationError("tenant_rate must be >= 0")
        if self.tenant_burst < 1:
            raise ConfigurationError("tenant_burst must be >= 1")
        if self.max_concurrency < 1:
            raise ConfigurationError("max_concurrency must be >= 1")
        if self.max_queue < 0:
            raise ConfigurationError("max_queue must be >= 0")
        if self.retry_after_seconds <= 0:
            raise ConfigurationError("retry_after_seconds must be positive")
        if self.max_tenants < 1:
            raise ConfigurationError("max_tenants must be >= 1")
        if self.drain_seconds < 0:
            raise ConfigurationError("drain_seconds must be >= 0")


class TokenBucket:
    """One tenant's continuous-refill token bucket."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: int, now: float) -> None:
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = now

    def try_acquire(self, now: float, tokens: float = 1.0) -> float:
        """Spend ``tokens`` if available.

        Returns ``0.0`` on success, else the seconds until enough
        tokens will have accrued (the 429 ``Retry-After``).
        """
        if now > self.stamp:
            self.tokens = min(
                self.burst, self.tokens + (now - self.stamp) * self.rate
            )
        self.stamp = now
        if self.tokens >= tokens:
            self.tokens -= tokens
            return 0.0
        return (tokens - self.tokens) / self.rate


class TenantBuckets:
    """Bounded LRU table of per-tenant :class:`TokenBucket` instances."""

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self.throttled = 0

    def __len__(self) -> int:
        return len(self._buckets)

    def try_acquire(self, tenant: str, now: float, tokens: float = 1.0) -> float:
        """0.0 when admitted, else the tenant's ``Retry-After`` seconds."""
        if self.policy.tenant_rate <= 0:
            return 0.0
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                self.policy.tenant_rate, self.policy.tenant_burst, now
            )
            self._buckets[tenant] = bucket
            while len(self._buckets) > self.policy.max_tenants:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(tenant)
        retry_after = bucket.try_acquire(now, tokens)
        if retry_after > 0:
            self.throttled += 1
        return retry_after


class ConcurrencyGate:
    """The engine turn: one holder at a time, plus demand accounting.

    Loop-local; callers ``await acquire()`` / ``release()`` around their
    engine calls, or take a free turn synchronously with
    :meth:`try_acquire`.  ``pressure`` counts waiters too, so
    ``peak_pressure`` records demand, not just occupancy.
    """

    def __init__(self, policy: AdmissionPolicy) -> None:
        import asyncio

        self.policy = policy
        self._turn = asyncio.Lock()
        self.inflight = 0
        self.waiting = 0
        self.rejected = 0
        self.peak_pressure = 0.0

    @property
    def pressure(self) -> float:
        """Demand as a fraction of ``max_concurrency`` (waiters included)."""
        return (self.inflight + self.waiting) / self.policy.max_concurrency

    def would_overflow(self) -> bool:
        """True when one more arrival must be refused with 503."""
        occupied = self.inflight + self.waiting
        if occupied + 1 > self.policy.max_concurrency + self.policy.max_queue:
            self.rejected += 1
            return True
        return False

    async def acquire(self) -> None:
        self.waiting += 1
        self.peak_pressure = max(self.peak_pressure, self.pressure)
        try:
            await self._turn.acquire()
        finally:
            self.waiting -= 1
        self.inflight += 1

    def try_acquire(self) -> bool:
        """Take the turn now if nobody holds or waits for it.

        The caller runs its engine call synchronously and then calls
        :meth:`release`; no other coroutine runs in between, so the lock
        itself is not taken.
        """
        if self.inflight or self.waiting:
            return False
        self.inflight = 1
        self.peak_pressure = max(self.peak_pressure, self.pressure)
        return True

    def release(self) -> None:
        self.inflight -= 1
        if self._turn.locked():  # taken by acquire(), not try_acquire()
            self._turn.release()
