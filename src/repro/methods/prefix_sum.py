"""The prefix sum method of Ho, Agrawal, Megiddo and Srikant (HAMS97).

Section 2 of the paper: an array ``P`` of the same shape as ``A`` stores,
at every cell, ``SUM(A[0,...,0] : A[cell])``.  Any range sum is then an
alternating combination of at most ``2^d`` cells of ``P`` — constant-time
queries.  The price is the cascading update of Figure 5: changing
``A[cell]`` changes every ``P`` cell dominating it, which in the worst
case (updating ``A[0,...,0]``) rewrites the entire cube — O(n^d).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import geometry
from .base import RangeSumMethod

__all__ = ["PrefixSumCube"]


class PrefixSumCube(RangeSumMethod):
    """HAMS97 prefix-sum array: O(1) queries, O(n^d) updates."""

    name = "ps"
    #: A scalar prefix query is one indexed read; the vectorised gather
    #: only wins once its numpy setup is spread over enough queries (a
    #: scalar read is already near-free, so the measured bar is high;
    #: docs/algorithms.md §8).
    batch_crossover = 19

    def __init__(self, shape: Sequence[int], dtype=np.int64) -> None:
        super().__init__(shape, dtype)
        self._prefix = np.zeros(self.shape, dtype=self.dtype)

    @classmethod
    def from_array(cls, array: np.ndarray, **kwargs) -> "PrefixSumCube":
        array = np.asarray(array)
        method = cls(array.shape, dtype=kwargs.pop("dtype", array.dtype), **kwargs)
        prefix = array.astype(method.dtype, copy=True)
        for axis in range(prefix.ndim):
            np.cumsum(prefix, axis=axis, out=prefix)
        method._prefix = prefix
        method.stats.cell_writes += prefix.size
        return method

    def prefix_sum(self, cell: Sequence[int] | int):
        cell = geometry.normalize_cell(cell, self.shape)
        self.stats.cell_reads += 1
        return self.dtype.type(self._prefix[cell])

    def prefix_sum_many(self, cells: Sequence) -> list:
        """Batch queries as one numpy fancy-index gather — O(1) per query."""
        normalized = [geometry.normalize_cell(cell, self.shape) for cell in cells]
        if not normalized:
            return []
        if not self._use_batch_path(len(normalized)):
            return [self.prefix_sum(cell) for cell in normalized]  # noqa: REP006 — below the crossover: a tiny batch of O(1) scalar reads beats the gather setup
        coords = np.array(normalized, dtype=np.intp)
        self.stats.cell_reads += len(normalized)
        # Iterating the gathered vector yields numpy scalars of the
        # prefix dtype already — no per-value reconversion loop.
        return list(self._prefix[tuple(coords.T)])

    def add(self, cell: Sequence[int] | int, delta) -> None:
        """The cascading update of Figure 5.

        Every ``P`` cell at or beyond ``cell`` in all dimensions includes
        ``A[cell]`` as a component, so all of them receive the delta.  The
        touched region has ``prod_i (n_i - cell_i)`` cells — the full cube
        when ``cell`` is the origin.
        """
        cell = geometry.normalize_cell(cell, self.shape)
        region = tuple(slice(c, None) for c in cell)
        self._prefix[region] += self.dtype.type(delta)
        touched = 1
        for coordinate, size in zip(cell, self.shape):
            touched *= size - coordinate
        self.stats.cell_writes += touched

    def add_many(self, updates) -> None:
        """Batch update in one cube-sized pass, regardless of batch size.

        This is the batch regime the paper says current systems are
        built for: the combined deltas are prefix-transformed once and
        folded into ``P`` — O(n^d) for the *whole batch* instead of
        O(n^d) per update.  (It is also why batch systems break down
        when updates must be visible immediately: the batch pass costs
        a full cube rewrite no matter how few updates it carries.)
        """
        combined = self._combined_updates(updates)
        if not combined:
            return
        if len(combined) == 1:
            cell, delta = combined[0]
            self.add(cell, delta)
            return
        deltas = self._delta_array(combined)
        for axis in range(deltas.ndim):
            np.cumsum(deltas, axis=axis, out=deltas)
        self._prefix += deltas
        self.stats.cell_writes += self._prefix.size

    def memory_cells(self) -> int:
        return self._prefix.size

    def to_dense(self) -> np.ndarray:
        """Invert the prefix transform (differencing along every axis)."""
        dense = self._prefix.copy()
        for axis in range(dense.ndim):
            dense = np.diff(dense, axis=axis, prepend=self.dtype.type(0))
        return dense
