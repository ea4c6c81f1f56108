"""Sub-query executors: the in-process one, and the fan-out the pool shares.

The engine decomposes every query into independent per-shard sub-queries
and hands the batch to an executor with a ``map`` / ``try_map`` /
``shutdown`` surface, so it never branches on the concurrency mode:

* :class:`SerialExecutor` — runs tasks in the calling thread, in order.
  The only in-process executor: shard work here is Python bytecode and
  small numpy gathers under the GIL, so an in-process thread pool only
  adds dispatch (0.17-0.98x of serial on every shape measured, CHANGES.md
  PR 22).  Parallelism lives in worker processes
  (:class:`~repro.engine.process.ProcessExecutor`).
* :class:`ThreadFanout` — the ordered thread-pool fan-out the process
  executor inherits; its pool threads block on worker pipes, which
  releases the GIL.  It is also the seam tests use to drive the deadline
  semantics without spawning processes.

Failure semantics: ``map`` propagates the first exception a task raises
(a programming error should surface loudly), while ``try_map`` — the
resilience layer's entry point — isolates failures per item and returns
``(result, error)`` outcome pairs so one failing shard can be retried
without discarding its siblings' answers.  The fan-out's ``try_map``
additionally honours a wall-clock ``timeout``: sub-operations that have
not finished when the budget runs out come back as
:class:`~repro.exceptions.DeadlineExceededError` outcomes (their
threads are abandoned, not killed — Python cannot preempt them — so a
genuinely stuck shard costs one pool thread until it unsticks).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Sequence, TypeVar

from ..exceptions import DeadlineExceededError

__all__ = ["SerialExecutor", "ThreadFanout"]

T = TypeVar("T")
R = TypeVar("R")


def _attempt(fn: Callable[[T], R], item: T) -> tuple:
    """One ``try_map`` outcome: ``(result, None)`` or ``(None, error)``."""
    try:
        return fn(item), None
    except Exception as error:  # noqa: BLE001 — isolated per item by design
        return None, error


class SerialExecutor:
    """In-thread executor: deterministic, zero dispatch overhead."""

    workers = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item in order, in the calling thread."""
        return [fn(item) for item in items]

    def try_map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        timeout: float | None = None,
        clock=None,
    ) -> list[tuple]:
        """Per-item ``(result, error)`` outcomes, in order.

        A raising item never aborts its siblings.  With ``timeout`` and
        an injected ``clock``, items whose turn comes after the budget
        has elapsed are not run at all and report
        :class:`~repro.exceptions.DeadlineExceededError` — the serial
        executor cannot preempt a running task, but it can refuse to
        start the next one.
        """
        deadline = (
            clock.now() + timeout
            if timeout is not None and clock is not None
            else None
        )
        outcomes: list[tuple] = []
        for item in items:
            if deadline is not None and clock.now() >= deadline:
                outcomes.append(
                    (None, DeadlineExceededError(
                        f"serial fan-out budget of {timeout}s exhausted"
                    ))
                )
                continue
            outcomes.append(_attempt(fn, item))
        return outcomes

    def shutdown(self) -> None:
        """Nothing to release."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class ThreadFanout:
    """Shared thread-pool fan-out surface (``map`` / ``try_map``).

    Subclasses provide ``self.workers`` and ``self._pool``; this mixin
    supplies the ordered fan-out, the per-item isolation, and the
    deadline semantics.  The process executor (see
    ``repro.engine.process``) is the one production subclass: its pool
    threads block on worker IPC (blocking on a pipe releases the GIL,
    which is the whole point).
    """

    workers: int
    _pool: ThreadPoolExecutor

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item concurrently; results keep order.

        A single-item batch — a request whose range resolves to one
        owning shard, the common case under zipf locality — runs inline:
        pool dispatch would cost more than the work it overlaps.
        """
        if len(items) == 1:
            return [fn(items[0])]
        return list(self._pool.map(fn, items))

    def try_map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        timeout: float | None = None,
        clock=None,
    ) -> list[tuple]:
        """Concurrent per-item ``(result, error)`` outcomes, in order.

        ``timeout`` bounds the *total* wall time spent waiting: each
        pending future is waited on for whatever remains of the budget
        (re-measured on the injected ``clock`` when given), and futures
        still running at exhaustion come back as
        :class:`~repro.exceptions.DeadlineExceededError` outcomes.  The
        underlying threads are abandoned to finish on their own — the
        caller must treat the sub-operation as failed either way.
        """
        futures = [self._pool.submit(_attempt, fn, item) for item in items]
        deadline = (
            clock.now() + timeout
            if timeout is not None and clock is not None
            else None
        )
        outcomes: list[tuple] = []
        for future in futures:
            if timeout is None:
                outcomes.append(future.result())
                continue
            remaining = (
                deadline - clock.now() if deadline is not None else timeout
            )
            try:
                outcomes.append(future.result(timeout=max(0.0, remaining)))
            except (FutureTimeoutError, TimeoutError):
                future.cancel()
                outcomes.append(
                    (None, DeadlineExceededError(
                        f"shard sub-operation exceeded the {timeout}s "
                        f"fan-out budget"
                    ))
                )
        return outcomes

    def shutdown(self) -> None:
        """Release the pool's threads (idempotent)."""
        self._pool.shutdown(wait=True)
