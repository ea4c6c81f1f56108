"""The naive method: the raw array ``A`` itself (Section 2).

Queries sum every cell in the requested region — O(n^d) in the worst
case — while updates write a single cell in O(1).  This is one end of the
query/update trade-off spectrum the paper maps out, and it doubles as the
reference oracle for the cross-method equivalence tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import geometry
from .base import RangeSumMethod

__all__ = ["NaiveArray"]


class NaiveArray(RangeSumMethod):
    """Dense array ``A`` with O(1) updates and O(n^d) range queries."""

    name = "naive"
    # The cumulative-pass batch path only amortizes its cube-wide cumsum
    # once the batch is big enough, regardless of what the logical cell
    # cost model says (measured in docs/algorithms.md §8).
    batch_crossover = 8

    def __init__(self, shape: Sequence[int], dtype=np.int64) -> None:
        super().__init__(shape, dtype)
        self._array = np.zeros(self.shape, dtype=self.dtype)

    @classmethod
    def from_array(cls, array: np.ndarray, **kwargs) -> "NaiveArray":
        array = np.asarray(array)
        method = cls(array.shape, dtype=kwargs.pop("dtype", array.dtype), **kwargs)
        method._array[...] = array
        method.stats.cell_writes += array.size
        return method

    def get(self, cell: Sequence[int] | int):
        cell = geometry.normalize_cell(cell, self.shape)
        self.stats.cell_reads += 1
        return self.dtype.type(self._array[cell])

    def add(self, cell: Sequence[int] | int, delta) -> None:
        cell = geometry.normalize_cell(cell, self.shape)
        self._array[cell] += delta
        self.stats.cell_writes += 1

    def set(self, cell: Sequence[int] | int, value) -> None:
        cell = geometry.normalize_cell(cell, self.shape)
        self._array[cell] = value
        self.stats.cell_writes += 1

    def prefix_sum(self, cell: Sequence[int] | int):
        cell = geometry.normalize_cell(cell, self.shape)
        region = tuple(slice(0, c + 1) for c in cell)
        self.stats.cell_reads += geometry.range_cell_count((0,) * self.dims, cell)
        return self.dtype.type(self._array[region].sum())

    def range_sum(self, low: Sequence[int] | int, high: Sequence[int] | int):
        # Summing the region directly beats inclusion-exclusion here: the
        # naive method has no precomputed prefixes to exploit.
        low_cell, high_cell = geometry.normalize_range(low, high, self.shape)
        region = tuple(slice(lo, hi + 1) for lo, hi in zip(low_cell, high_cell))
        self.stats.cell_reads += geometry.range_cell_count(low_cell, high_cell)
        return self.dtype.type(self._array[region].sum())

    def prefix_sum_many(self, cells: Sequence) -> list:
        """Adaptive batch: one full prefix pass once it beats region sums.

        A batch of k prefix queries costs the sum of its k prefix-region
        sizes sequentially, but a single cube-wide cumulative pass plus k
        O(1) gathers answers them all — the batch regime that makes even
        the naive array competitive for read-mostly bursts.
        """
        normalized = [geometry.normalize_cell(cell, self.shape) for cell in cells]
        if not normalized:
            return []
        origin = (0,) * self.dims
        sequential_cost = sum(
            geometry.range_cell_count(origin, cell) for cell in normalized
        )
        if (
            not self._use_batch_path(len(normalized))
            or sequential_cost <= self._array.size
        ):
            self.last_batch_path = "scalar"
            return [self.prefix_sum(cell) for cell in normalized]  # noqa: REP006 — below the crossover, direct region sums win
        self.last_batch_path = "batch"
        prefix = self._array.astype(self.dtype, copy=True)
        for axis in range(prefix.ndim):
            np.cumsum(prefix, axis=axis, out=prefix)
        self.stats.cell_reads += self._array.size
        index = tuple(
            np.array([cell[axis] for cell in normalized], dtype=np.intp)
            for axis in range(self.dims)
        )
        return [self.dtype.type(value) for value in prefix[index]]

    def range_sum_many(self, ranges: Sequence) -> list:
        """Adaptive batch: direct region sums until the prefix pass wins."""
        queries = [self._query_bounds(item) for item in ranges]
        direct_cost = sum(
            geometry.range_cell_count(low, high) for low, high in queries
        )
        if (
            not self._use_batch_path(len(queries))
            or direct_cost <= self._array.size
        ):
            self.last_batch_path = "scalar"
            return [self.range_sum(low, high) for low, high in queries]  # noqa: REP006 — below the crossover, direct region sums win
        return super().range_sum_many(queries)

    def memory_cells(self) -> int:
        return self._array.size

    def to_dense(self) -> np.ndarray:
        return self._array.copy()
