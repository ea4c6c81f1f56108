"""Dense numpy oracle and the tally of what was checked.

The oracle is the logical array itself: a write is ``A[cell] += delta``
and a read is ``A[low:high+1].sum()``.  Nothing here shares code with
the structures under test.
"""

from __future__ import annotations

import numpy as np


class DenseOracle:
    def __init__(self, cube: np.ndarray) -> None:
        self.array = np.array(cube, dtype=np.int64)

    def add(self, cell, delta) -> None:
        self.array[tuple(cell)] += delta

    def range_sum(self, low, high) -> int:
        region = tuple(slice(lo, hi + 1) for lo, hi in zip(low, high))
        return int(self.array[region].sum())

    def total(self) -> int:
        return int(self.array.sum())


class Tally:
    """Ops attempted, failed and verified.  ``corrupt_one`` perturbs the
    first expected value it sees — the self-check that the oracle bites."""

    def __init__(self, corrupt_one: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.first_failure: str | None = None
        self._corrupt = corrupt_one

    def attempt(self, ops: int) -> None:
        self.attempted += ops

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        if self.first_failure is None:
            self.first_failure = why

    def check(self, got, expected: int, what: str) -> None:
        if self._corrupt:
            expected += 1
            self._corrupt = False
        self.checked += 1
        # Values arrive as numpy scalars, ints, or JSON numbers; the
        # cubes hold integers, so equality is exact.
        if got is None or isinstance(got, BaseException) or got != expected:
            self.fail(1, f"{what}: got {got!r}, oracle says {expected}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.checked > 0
