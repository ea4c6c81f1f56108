"""The sub-query executor: every fan-out runs on the caller's thread.

The engine decomposes every query into independent per-shard sub-queries
and hands the batch to an executor with a ``map`` / ``try_map`` /
``shutdown`` surface, so it never branches on the concurrency mode.
:class:`SerialExecutor` runs the tasks in the calling thread, in order.
Shard work here is Python bytecode and small numpy gathers under the
GIL, so an in-process thread pool only adds dispatch (0.17-0.98x of
serial on every shape measured, CHANGES.md PR 22).  Parallelism lives in
worker processes (:class:`~repro.engine.process.ProcessExecutor`, which
inherits this fan-out: its reads gather off shared memory and never wait
on a worker).

Failure semantics: ``map`` propagates the first exception a task raises
(a programming error should surface loudly), while ``try_map`` — the
resilience layer's entry point — isolates failures per item and returns
``(result, error)`` outcome pairs so one failing shard can be retried
without discarding its siblings' answers.  ``try_map``'s deadline is
checked between items, never inside one: a running item is not
preempted, but an item whose turn comes after the budget is spent is not
started.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from ..exceptions import DeadlineExceededError

__all__ = ["SerialExecutor"]

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
