"""Runtime lock sanitizer: the dynamic twin of the REP009/REP010 rules.

The static analyses in :mod:`repro.analysis.flow` prove properties about
paths the checker can see; :class:`LockSanitizer` checks the paths a run
*actually takes*.  It is a test/chaos instrument — production code never
constructs one — with three moving parts:

* :class:`SanitizedLock` — a drop-in wrapper around a
  ``threading.Lock``/``RLock`` that keeps per-thread held sets and a
  global lock-acquisition-order graph.  Acquiring ``b`` while holding
  ``a`` records the edge ``a -> b``; a later attempt to acquire ``a``
  while holding ``b`` is a latent ABBA deadlock and raises
  :class:`~repro.exceptions.LockOrderViolationError` *before* touching
  the underlying lock (so the sanitizer reports the inversion instead of
  deadlocking the test run).
* :class:`GuardedList` / :class:`GuardedObject` — proxies around
  registered shared objects that verify the guarding lock is held by the
  mutating thread, raising
  :class:`~repro.exceptions.UnguardedMutationError` otherwise.  This is
  the runtime analogue of REP009's "shared attribute written with empty
  lock set".
* :func:`attach_engine` — wires all of the above onto a live
  :class:`~repro.engine.engine.ShardedEngine`: its ``_lock`` becomes a
  :class:`SanitizedLock` and ``_epochs`` / ``_cache`` / ``_breakers``
  become guarded proxies.

Every acquisition, release, and violation is stamped on the injected
:mod:`repro.obs` clock (never ``time.monotonic()`` directly — REP008),
so chaos runs with a :class:`~repro.obs.clock.ManualClock` stay
deterministic and replayable.  With ``strict=False`` the sanitizer
records violations in :attr:`LockSanitizer.violations` instead of
raising, which is how ``repro chaos --sanitize`` accumulates a report
before exiting 2.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from ..exceptions import (
    LockOrderViolationError,
    RaceGuardError,
    UnguardedMutationError,
)
from ..obs.clock import MonotonicClock

__all__ = [
    "LockEvent",
    "LockSanitizer",
    "SanitizedLock",
    "GuardedList",
    "GuardedObject",
    "attach_engine",
]

#: Method names treated as mutations on a :class:`GuardedObject`.
_MUTATOR_METHODS = frozenset(
    {
        "__setitem__",
        "__delitem__",
        "__iadd__",
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "put",
        "get",  # EpochLruCache.get mutates LRU order + invalidation books
        "log_cell",  # EpochLruCache write logs
        "log_cells",
    }
)


@dataclass(frozen=True)
class LockEvent:
    """One acquisition/release/violation, stamped on the obs clock."""

    timestamp: float
    thread: str
    kind: str  # "acquire" | "release" | "violation"
    detail: str


class LockSanitizer:
    """Record lock discipline at runtime; raise (or log) violations.

    ``strict=True`` (the default, used by the test fixture) raises on
    the offending thread at the violation site.  ``strict=False`` (used
    by ``repro chaos --sanitize``) records
    :class:`~repro.exceptions.RaceGuardError` instances in
    :attr:`violations` so a soak can finish and report everything.
    """

    def __init__(self, clock: Any = None, *, strict: bool = True) -> None:
        self.clock = clock if clock is not None else MonotonicClock()
        self.strict = strict
        #: The sanitizer's own books are guarded by a private lock that
        #: is never visible to the code under test.
        self._books = threading.Lock()
        #: thread ident -> {lock name: reentrancy count}, insertion
        #: ordered so the held *sequence* is recoverable.
        self._held: dict[int, dict[str, int]] = {}
        #: (outer, inner) -> thread name that first recorded the edge.
        self._order: dict[tuple[str, str], str] = {}
        self.events: list[LockEvent] = []
        self.violations: list[RaceGuardError] = []

    # -- bookkeeping ---------------------------------------------------

    def _record(self, kind: str, detail: str) -> None:
        self.events.append(
            LockEvent(
                self.clock.now(), threading.current_thread().name, kind, detail
            )
        )

    def _violation(self, error: RaceGuardError) -> None:
        self._record("violation", str(error))
        self.violations.append(error)
        if self.strict:
            raise error

    def held_by_current_thread(self) -> tuple[str, ...]:
        """Lock names the calling thread holds, in acquisition order."""
        with self._books:
            return tuple(self._held.get(threading.get_ident(), {}))

    def holds(self, name: str) -> bool:
        """Does the calling thread hold the lock called ``name``?"""
        with self._books:
            return name in self._held.get(threading.get_ident(), {})

    # -- lock wrapping -------------------------------------------------

    def wrap(self, lock: Any, name: str) -> "SanitizedLock":
        """Wrap ``lock`` so its use is recorded under ``name``."""
        return SanitizedLock(self, lock, name)

    def _before_acquire(self, name: str) -> None:
        """Order check — runs *before* the real acquire so an inversion
        raises instead of deadlocking the run."""
        ident = threading.get_ident()
        inversion: tuple[str, str] | None = None
        with self._books:
            held = self._held.setdefault(ident, {})
            if name in held:  # reentrant: no new edges
                return
            for outer in held:
                if (name, outer) in self._order:
                    inversion = (outer, name)
                    break
            else:
                for outer in held:
                    self._order.setdefault((outer, name), threading.current_thread().name)
        if inversion is not None:
            outer, inner = inversion
            first_thread = self._order[(inner, outer)]
            self._violation(
                LockOrderViolationError(
                    f"acquiring {inner!r} while holding {outer!r} inverts "
                    f"the {inner!r} -> {outer!r} order first recorded on "
                    f"thread {first_thread!r} — latent ABBA deadlock"
                )
            )

    def _after_acquire(self, name: str) -> None:
        ident = threading.get_ident()
        with self._books:
            held = self._held.setdefault(ident, {})
            held[name] = held.get(name, 0) + 1
        self._record("acquire", name)

    def _after_release(self, name: str) -> None:
        ident = threading.get_ident()
        with self._books:
            held = self._held.get(ident, {})
            if name in held:
                held[name] -= 1
                if held[name] <= 0:
                    del held[name]
        self._record("release", name)

    # -- shared-object guarding ----------------------------------------

    def _check_guard(self, target: str, guards: tuple[str, ...], op: str) -> None:
        if any(self.holds(guard) for guard in guards):
            return
        wanted = " or ".join(repr(guard) for guard in guards)
        self._violation(
            UnguardedMutationError(
                f"{op} on {target} without holding {wanted} "
                f"(thread {threading.current_thread().name!r})"
            )
        )

    def guard_list(
        self, target: list, name: str, guards: Sequence[str]
    ) -> "GuardedList":
        return GuardedList(self, target, name, tuple(guards))

    def guard_object(
        self, target: Any, name: str, guards: Sequence[str]
    ) -> "GuardedObject":
        return GuardedObject(self, target, name, tuple(guards))

    def report(self) -> list[str]:
        """Human-readable violation lines (stable order of occurrence)."""
        return [
            f"{type(error).__name__}: {error}" for error in self.violations
        ]


class SanitizedLock:
    """Drop-in ``threading.RLock`` replacement that reports to a sanitizer."""

    def __init__(self, sanitizer: LockSanitizer, inner: Any, name: str) -> None:
        self._sanitizer = sanitizer
        self._inner = inner
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._sanitizer._before_acquire(self.name)
        acquired = bool(self._inner.acquire(blocking, timeout))
        if acquired:
            self._sanitizer._after_acquire(self.name)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._sanitizer._after_release(self.name)

    def __enter__(self) -> "SanitizedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SanitizedLock({self.name!r})"


class GuardedList:
    """List proxy that requires a guarding lock for every mutation.

    Reads (indexing, iteration, ``len``) pass through unchecked — the
    engine's read paths take the lock anyway, and read-side checking
    would double the sanitizer's overhead for no extra signal on the
    write-race bugs REP009 targets.
    """

    __slots__ = ("_sanitizer", "_target", "_name", "_guards")

    def __init__(
        self,
        sanitizer: LockSanitizer,
        target: list,
        name: str,
        guards: tuple[str, ...],
    ) -> None:
        self._sanitizer = sanitizer
        self._target = target
        self._name = name
        self._guards = guards

    def _check(self, op: str) -> None:
        self._sanitizer._check_guard(self._name, self._guards, op)

    # mutations --------------------------------------------------------

    def __setitem__(self, index: Any, value: Any) -> None:
        self._check(f"__setitem__[{index!r}]")
        self._target[index] = value

    def __delitem__(self, index: Any) -> None:
        self._check(f"__delitem__[{index!r}]")
        del self._target[index]

    def append(self, value: Any) -> None:
        self._check("append")
        self._target.append(value)

    def extend(self, values: Iterable[Any]) -> None:
        self._check("extend")
        self._target.extend(values)

    def insert(self, index: int, value: Any) -> None:
        self._check("insert")
        self._target.insert(index, value)

    def pop(self, index: int = -1) -> Any:
        self._check("pop")
        return self._target.pop(index)

    def clear(self) -> None:
        self._check("clear")
        self._target.clear()

    # reads ------------------------------------------------------------

    def __getitem__(self, index: Any) -> Any:
        return self._target[index]

    def __len__(self) -> int:
        return len(self._target)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._target)

    def __contains__(self, value: Any) -> bool:
        return value in self._target

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GuardedList):
            return self._target == other._target
        return self._target == other

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GuardedList({self._name!r}, {self._target!r})"


class GuardedObject:
    """Attribute/method proxy guarding an arbitrary shared object.

    Calls to method names in :data:`_MUTATOR_METHODS` require a guarding
    lock; every other attribute access passes straight through to the
    wrapped object.
    """

    __slots__ = ("_sanitizer", "_target", "_name", "_guards")

    def __init__(
        self,
        sanitizer: LockSanitizer,
        target: Any,
        name: str,
        guards: tuple[str, ...],
    ) -> None:
        object.__setattr__(self, "_sanitizer", sanitizer)
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_name", name)
        object.__setattr__(self, "_guards", guards)

    def _check(self, op: str) -> None:
        self._sanitizer._check_guard(self._name, self._guards, op)

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._target, attr)
        if attr in _MUTATOR_METHODS and callable(value):
            def guarded(*args: Any, **kwargs: Any) -> Any:
                self._check(attr)
                return value(*args, **kwargs)

            return guarded
        return value

    def __setattr__(self, attr: str, value: Any) -> None:
        self._check(f"setattr({attr!r})")
        setattr(self._target, attr, value)

    def __setitem__(self, key: Any, value: Any) -> None:
        self._check(f"__setitem__[{key!r}]")
        self._target[key] = value

    def __getitem__(self, key: Any) -> Any:
        return self._target[key]

    def __len__(self) -> int:
        return len(self._target)

    def __contains__(self, key: Any) -> bool:
        return key in self._target

    def __iter__(self) -> Iterator[Any]:
        return iter(self._target)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GuardedObject({self._name!r})"


def attach_engine(engine: Any, sanitizer: LockSanitizer) -> Any:
    """Wire a sanitizer onto a live engine's lock and shared state.

    Replaces ``engine._lock`` with a :class:`SanitizedLock` and wraps
    the REP009 guarded attributes (``_epochs``, ``_cache``,
    ``_breakers``) in checking proxies.  Returns the engine for
    chaining.  Safe to call once per engine; a second call would wrap
    the wrappers and double-count acquisitions.
    """
    lock_name = "engine._lock"
    engine._lock = sanitizer.wrap(engine._lock, lock_name)
    engine._epochs = sanitizer.guard_list(
        engine._epochs, "engine._epochs", (lock_name,)
    )
    engine._cache = sanitizer.guard_object(
        engine._cache, "engine._cache", (lock_name,)
    )
    if getattr(engine, "_breakers", None) is not None:
        engine._breakers = sanitizer.guard_list(
            list(engine._breakers), "engine._breakers", (lock_name,)
        )
    return engine
