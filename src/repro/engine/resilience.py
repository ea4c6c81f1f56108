"""Fault tolerance for the sharded serving engine.

The PR 3 engine assumed every shard sub-operation succeeds instantly:
one slow or failing shard stalled an entire fan-out, and there was no
vocabulary for "this answer is missing a slab".  This module is the
tail-control layer the ROADMAP's serving arc needs — the paper promises
predictable *O(log^d n)* cost per operation, and a deployment is judged
on whether the p99 actually honours that promise under partial failure:

* :class:`ResiliencePolicy` — one frozen configuration object: the
  per-request deadline budget, the retry/backoff schedule, the circuit
  breaker thresholds, and the graceful-degradation mode.
* :class:`Deadline` — a request's absolute time budget, threaded
  through every retry round and fan-out wait.
* :class:`CircuitBreaker` — per-shard closed/open/half-open state over
  a sliding outcome window, with a cooldown before half-open probing.
* :class:`PartialResult` — an explicitly-marked degraded answer
  (``partial=True``, the missing shards named) so a caller can never
  mistake a partial sum for an exact one.
* :class:`FaultInjector` — a deterministic, seeded chaos harness that
  wraps any executor and injects transient exceptions, latency spikes,
  stuck-shard hangs, and scripted fail-N-then-recover sequences, so
  every behaviour above is testable without real timing races.

All timing flows through the injected observability clock
(``obs.clock.now()`` / ``obs.clock.sleep()``) — never ``time.*``
directly — which lint rule REP008 enforces and which makes a
:class:`~repro.obs.clock.ManualClock` chaos soak fully deterministic.
Breaker state mutates only on the thread that owns the engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from ..exceptions import (
    CircuitOpenError,
    ConfigurationError,
    InjectedFaultError,
    WorkerCrashedError,
)

__all__ = [
    "ResiliencePolicy",
    "Deadline",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "PartialResult",
    "is_partial",
    "FaultInjector",
    "FaultScript",
]

#: Circuit-breaker states, ordered by severity for the obs gauge
#: (0 = closed/healthy, 1 = half-open/probing, 2 = open/shedding).
BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half-open"
BREAKER_OPEN = "open"

_STATE_GAUGE_VALUES = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}

#: Degradation modes (see :class:`ResiliencePolicy.degradation`).
_DEGRADATION_MODES = ("strict", "partial", "fallback")


@dataclass(frozen=True)
class ResiliencePolicy:
    """The engine's complete fault-tolerance configuration.

    Args:
        deadline_seconds: per-request time budget; ``None`` disables
            deadline enforcement.  The budget covers every retry round
            and backoff sleep of one read request.
        max_retries: re-attempts per shard sub-operation after the
            first failure (0 = fail on first error).
        backoff_base: first retry's backoff sleep, in seconds.
        backoff_multiplier: exponential growth factor between rounds.
        backoff_cap: upper bound on any single backoff sleep.
        jitter: fraction of the computed backoff added as seeded
            uniform noise (0 disables; 0.5 adds up to +50%).  Jitter is
            drawn from a ``random.Random(retry_seed)`` so runs are
            reproducible.
        retry_seed: seed for the jitter stream.
        breaker_window: sliding window of recent outcomes per shard the
            failure rate is computed over; 0 disables the breakers.
        breaker_failure_threshold: failure fraction within a full
            window that trips the breaker open.
        breaker_cooldown_seconds: how long an open breaker sheds load
            before allowing a half-open probe.
        degradation: what a request does when a shard stays failed
            after retries —

            * ``"strict"``: raise (:class:`~repro.exceptions.ShardFailedError`
              or :class:`~repro.exceptions.DeadlineExceededError`);
            * ``"partial"``: serve the sum of the healthy shards,
              wrapped in a :class:`PartialResult` marked
              ``partial=True`` (never cached);
            * ``"fallback"``: recompute the failed sub-ranges on the
              unsharded path — synchronously, bypassing the executor
              fan-out — yielding an exact answer at degraded latency.
    """

    deadline_seconds: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.01
    backoff_multiplier: float = 2.0
    backoff_cap: float = 1.0
    jitter: float = 0.5
    retry_seed: int = 0
    breaker_window: int = 8
    breaker_failure_threshold: float = 0.5
    breaker_cooldown_seconds: float = 5.0
    degradation: str = "strict"

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError(
                f"deadline_seconds must be positive or None, "
                f"got {self.deadline_seconds}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError("backoff times must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter:
            raise ConfigurationError(f"jitter must be >= 0, got {self.jitter}")
        if self.breaker_window < 0:
            raise ConfigurationError(
                f"breaker_window must be >= 0, got {self.breaker_window}"
            )
        if not 0.0 < self.breaker_failure_threshold <= 1.0:
            raise ConfigurationError(
                f"breaker_failure_threshold must be in (0, 1], "
                f"got {self.breaker_failure_threshold}"
            )
        if self.degradation not in _DEGRADATION_MODES:
            raise ConfigurationError(
                f"degradation must be one of {_DEGRADATION_MODES}, "
                f"got {self.degradation!r}"
            )

    def backoff(self, round_index: int, rng: random.Random) -> float:
        """The backoff sleep before retry round ``round_index`` (0-based)."""
        base = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_multiplier**round_index,
        )
        if self.jitter:
            base *= 1.0 + self.jitter * rng.random()
        return min(base, self.backoff_cap)


class Deadline:
    """One request's absolute time budget on the injected clock."""

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = expires_at

    @classmethod
    def after(cls, clock, budget_seconds: float | None) -> "Deadline | None":
        """A deadline ``budget_seconds`` from now, or None for no budget."""
        if budget_seconds is None:
            return None
        return cls(clock.now() + budget_seconds)

    def remaining(self, clock) -> float:
        """Seconds left on the budget (never negative)."""
        return max(0.0, self.expires_at - clock.now())

    def expired(self, clock) -> bool:
        """True once the budget is spent."""
        return clock.now() >= self.expires_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deadline(expires_at={self.expires_at})"


class CircuitBreaker:
    """Per-shard closed / open / half-open breaker over an outcome window.

    State machine:

    * **closed** — calls flow; outcomes land in a sliding window of the
      last ``window`` attempts.  When the window is full and its
      failure fraction reaches ``failure_threshold``, the breaker
      opens.
    * **open** — calls are refused (:meth:`allow` returns False) until
      ``cooldown_seconds`` have elapsed on the injected clock; the
      engine turns a refusal into an immediate
      :class:`~repro.exceptions.CircuitOpenError` without touching the
      shard, which is what keeps a persistently-failing shard from
      dragging every request through its retry budget.
    * **half-open** — after the cooldown, exactly one probe call is
      allowed through.  Success closes the breaker (window reset);
      failure re-opens it and re-arms the cooldown.

    The breaker is deliberately not thread-safe: only the thread that
    owns the engine mutates it, recording outcomes after each fan-out
    round returns.
    """

    __slots__ = ("policy", "state", "_outcomes", "_opened_at", "_probing")

    def __init__(self, policy: ResiliencePolicy) -> None:
        self.policy = policy
        self.state = BREAKER_CLOSED
        self._outcomes: list[bool] = []  # True = failure
        self._opened_at = 0.0
        self._probing = False

    @property
    def enabled(self) -> bool:
        return self.policy.breaker_window > 0

    @property
    def gauge_value(self) -> int:
        """Numeric encoding for the obs gauge (0/1/2 = closed/half/open)."""
        return _STATE_GAUGE_VALUES[self.state]

    def failure_rate(self) -> float:
        """Failure fraction over the current window (0.0 when empty)."""
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    def allow(self, now: float) -> bool:
        """May a call be attempted right now?  (May transition to half-open.)"""
        if not self.enabled or self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if now - self._opened_at >= self.policy.breaker_cooldown_seconds:
                self.state = BREAKER_HALF_OPEN
                self._probing = False
            else:
                return False
        # half-open: admit a single probe until its outcome is recorded
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self, now: float) -> None:
        """Note a successful call (closes a half-open breaker)."""
        if not self.enabled:
            return
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_CLOSED
            self._outcomes = []
            self._probing = False
            return
        self._push(False)

    def record_failure(self, now: float) -> None:
        """Note a failed call (may open the breaker)."""
        if not self.enabled:
            return
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_OPEN
            self._opened_at = now
            self._probing = False
            return
        self._push(True)
        window = self.policy.breaker_window
        if (
            self.state == BREAKER_CLOSED
            and len(self._outcomes) >= window
            and self.failure_rate() >= self.policy.breaker_failure_threshold
        ):
            self.state = BREAKER_OPEN
            self._opened_at = now

    def _push(self, failed: bool) -> None:
        self._outcomes.append(failed)
        if len(self._outcomes) > self.policy.breaker_window:
            self._outcomes.pop(0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"failure_rate={self.failure_rate():.2f})"
        )


class PartialResult:
    """A degraded range-sum answer, explicitly marked.

    Wraps the sum of the shards that *did* answer, names the shards
    that did not, and exposes ``partial=True`` so no caller can mistake
    it for an exact answer.  It quacks like a number (``int()``,
    ``float()``, equality, addition) so reporting pipelines keep
    working, but the engine never caches one.
    """

    __slots__ = ("value", "missing_shards")

    partial = True

    def __init__(self, value, missing_shards: Sequence[int]) -> None:
        self.value = value
        self.missing_shards = tuple(sorted(missing_shards))

    def __int__(self) -> int:
        return int(self.value)

    def __float__(self) -> float:
        return float(self.value)

    def __index__(self) -> int:
        return int(self.value)

    def __eq__(self, other) -> bool:
        if isinstance(other, PartialResult):
            return (
                self.value == other.value
                and self.missing_shards == other.missing_shards
            )
        return bool(self.value == other)

    def __hash__(self) -> int:
        return hash((self.value, self.missing_shards))

    def __add__(self, other):
        return self.value + other

    __radd__ = __add__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartialResult({self.value!r}, "
            f"missing_shards={self.missing_shards})"
        )


def is_partial(value) -> bool:
    """True when ``value`` is an explicitly-marked degraded answer."""
    return getattr(value, "partial", False) is True


class FaultScript:
    """Deterministic per-shard fault plan: fail the next N calls, then recover.

    The building block for breaker tests — ``FaultScript(fail_next=6)``
    on one shard trips its breaker open, and the recovery (every call
    after the Nth succeeds) is what the half-open probe finds.
    """

    __slots__ = ("fail_next",)

    def __init__(self, fail_next: int) -> None:
        if fail_next < 0:
            raise ConfigurationError(
                f"fail_next must be >= 0, got {fail_next}"
            )
        self.fail_next = fail_next

    def should_fail(self) -> bool:
        """Consume one scheduled failure (False once exhausted)."""
        if self.fail_next > 0:
            self.fail_next -= 1
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultScript(fail_next={self.fail_next})"


class FaultInjector:
    """Seeded chaos harness: an executor wrapper that injects faults.

    Wraps any executor (serial or process pool) and perturbs each task
    invocation before the real work runs.  The engine's work items are
    ``(shard_index, ...)`` tuples, so faults are attributed per shard.
    Because retries re-submit through the executor, every retry round
    passes through the injector again — exactly what a flaky shard
    looks like from the engine's side.

    Fault kinds, all driven by one ``random.Random(seed)`` stream:

    * **transient exception** (``fault_rate``) — raise
      :class:`~repro.exceptions.InjectedFaultError`; the retry path's
      bread and butter.
    * **latency spike** (``latency_rate``) — ``clock.sleep(latency_seconds)``
      before the work; visible in the latency histograms and, under a
      deadline, convertible into a timeout.
    * **stuck shard** (``hang_rate``) — ``clock.sleep(hang_seconds)``
      *then* raise: the time is burned and the call still fails, which
      is how a hung sub-operation looks to a deadline budget.  On a
      :class:`~repro.obs.clock.ManualClock` the "hang" is virtual and
      the test stays instant.
    * **worker kill** (``kill_rate``) — SIGKILL the pool worker owning
      the shard (when the wrapped executor exposes ``kill_worker``,
      i.e. the process executor) and fail the call with
      :class:`~repro.exceptions.WorkerCrashedError`, exactly as a
      mid-query death surfaces.  The process genuinely dies: reads keep
      gathering off the shared-memory slabs, and the next write or
      fence on its lane respawns it, so recovery is exact.  On executors without workers to kill the error is
      still raised, simulating the crash.
    * **scripts** — a ``{shard_index: FaultScript}`` mapping for exact
      fail-N-then-recover sequences (overrides the random draws for
      that shard while active).

    Every executor runs its items in turn on the caller's thread, so the
    draws meet the tasks in one order and a seed replays exactly, in
    process mode too.
    """

    def __init__(
        self,
        executor,
        clock,
        seed: int = 0,
        fault_rate: float = 0.0,
        latency_rate: float = 0.0,
        latency_seconds: float = 0.005,
        hang_rate: float = 0.0,
        hang_seconds: float = 0.1,
        kill_rate: float = 0.0,
        scripts: dict[int, FaultScript] | None = None,
    ) -> None:
        for name, rate in (
            ("fault_rate", fault_rate),
            ("latency_rate", latency_rate),
            ("hang_rate", hang_rate),
            ("kill_rate", kill_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        self._inner = executor
        self._clock = clock
        self._rng = random.Random(seed)
        self.fault_rate = fault_rate
        self.latency_rate = latency_rate
        self.latency_seconds = latency_seconds
        self.hang_rate = hang_rate
        self.hang_seconds = hang_seconds
        self.kill_rate = kill_rate
        self.scripts = dict(scripts or {})
        #: Tally of injected events by kind, for soak reports.
        self.injected = {"fault": 0, "latency": 0, "hang": 0, "kill": 0, "script": 0}
        self.calls = 0

    @property
    def workers(self) -> int:
        return self._inner.workers

    def _shard_of(self, item) -> int | None:
        try:
            return item[0]
        except (TypeError, IndexError):
            return None

    def _perturb(self, item) -> None:
        """Maybe inject one fault for this task invocation."""
        self.calls += 1
        shard = self._shard_of(item)
        script = self.scripts.get(shard) if shard is not None else None
        if script is not None and script.should_fail():
            self.injected["script"] += 1
            raise InjectedFaultError(
                f"scripted fault on shard {shard} "
                f"({script.fail_next} remaining)"
            )
        draw = self._rng.random()
        if draw < self.hang_rate:
            self.injected["hang"] += 1
            self._clock.sleep(self.hang_seconds)
            raise InjectedFaultError(
                f"stuck shard {shard}: hung {self.hang_seconds}s, then failed"
            )
        if draw < self.hang_rate + self.fault_rate:
            self.injected["fault"] += 1
            raise InjectedFaultError(f"transient fault on shard {shard}")
        if draw < self.hang_rate + self.fault_rate + self.kill_rate:
            self.injected["kill"] += 1
            killer = getattr(self._inner, "kill_worker", None)
            if killer is not None and shard is not None:
                killer(shard)
            raise WorkerCrashedError(
                f"injected worker kill while serving shard {shard}"
            )
        if draw < (
            self.hang_rate + self.fault_rate + self.kill_rate + self.latency_rate
        ):
            self.injected["latency"] += 1
            self._clock.sleep(self.latency_seconds)

    def _wrap(self, fn: Callable) -> Callable:
        def faulty(item):
            self._perturb(item)
            return fn(item)

        return faulty

    def map(self, fn: Callable, items: Sequence) -> list:
        """Delegate to the wrapped executor with faults armed."""
        return self._inner.map(self._wrap(fn), items)

    def try_map(
        self,
        fn: Callable,
        items: Sequence,
        timeout: float | None = None,
        clock=None,
    ) -> list[tuple]:
        """Delegate ``try_map`` with faults armed (per-item isolation)."""
        return self._inner.try_map(
            self._wrap(fn), items, timeout=timeout, clock=clock
        )

    def shutdown(self) -> None:
        self._inner.shutdown()

    def report(self) -> dict:
        """Injection tallies: calls seen and faults delivered by kind."""
        total = sum(self.injected.values())
        return {
            "calls": self.calls,
            "injected_total": total,
            "injected_rate": total / self.calls if self.calls else 0.0,
            **{f"injected_{kind}": n for kind, n in self.injected.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultInjector({self._inner!r}, fault_rate={self.fault_rate}, "
            f"latency_rate={self.latency_rate}, hang_rate={self.hang_rate})"
        )
