"""d-dimensional Fenwick (binary indexed) tree baseline.

Not part of the paper, but the natural point of comparison for its
novelty claim: a d-dimensional Fenwick tree also answers prefix sums and
point updates in O(log^d n) using exactly ``n^d`` stored cells.  The
ablation benchmarks (experiment A1 in DESIGN.md) measure the Dynamic
Data Cube against it to quantify what the DDC's extra machinery buys —
dynamic growth and graceful sparsity — and what it costs in constants.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .. import geometry
from .base import RangeSumMethod, masked_path_gather

__all__ = ["FenwickCube"]


def _update_path(index: int, size: int) -> Iterator[int]:
    """0-based cells whose partial sums cover ``index`` (ascending walk)."""
    position = index + 1
    while position <= size:
        yield position - 1
        position += position & (-position)


def _query_path(index: int) -> Iterator[int]:
    """0-based cells whose partial sums compose ``prefix(index)``."""
    position = index + 1
    while position > 0:
        yield position - 1
        position -= position & (-position)


class FenwickCube(RangeSumMethod):
    """d-dimensional binary indexed tree: O(log^d n) queries and updates."""

    name = "fenwick"
    #: The per-level gather visits every level *combination* regardless
    #: of batch size — prod_i log2(n_i) vectorised reads — so small
    #: batches are much cheaper as plain path walks (docs/algorithms.md
    #: §8 has where the gather starts to win).
    batch_crossover = 41

    def __init__(self, shape: Sequence[int], dtype=np.int64) -> None:
        super().__init__(shape, dtype)
        self._tree = np.zeros(self.shape, dtype=self.dtype)

    @classmethod
    def from_array(cls, array: np.ndarray, **kwargs) -> "FenwickCube":
        """Bulk build in O(n^d) via the in-place parent-propagation trick.

        Along each axis independently, every position donates its partial
        sum to its Fenwick parent — the standard linear-time construction,
        applied axis by axis.
        """
        array = np.asarray(array)
        method = cls(array.shape, dtype=kwargs.pop("dtype", array.dtype), **kwargs)
        tree = array.astype(method.dtype, copy=True)
        for axis, size in enumerate(method.shape):
            moved = np.moveaxis(tree, axis, 0)
            for position in range(1, size + 1):
                parent = position + (position & (-position))
                if parent <= size:
                    moved[parent - 1] += moved[position - 1]
        method._tree = tree
        method.stats.cell_writes += tree.size
        return method

    def add(self, cell: Sequence[int] | int, delta) -> None:
        cell = geometry.normalize_cell(cell, self.shape)
        delta = self.dtype.type(delta)
        paths = [list(_update_path(c, n)) for c, n in zip(cell, self.shape)]
        for index in product(*paths):
            self._tree[index] += delta
            self.stats.cell_writes += 1

    def prefix_sum(self, cell: Sequence[int] | int):
        cell = geometry.normalize_cell(cell, self.shape)
        result = self._zero()
        paths = [list(_query_path(c)) for c in cell]
        for index in product(*paths):
            result += self._tree[index]
            self.stats.cell_reads += 1
        return self.dtype.type(result)

    def prefix_sum_many(self, cells: Sequence) -> list:
        """Batch queries via a loop-free per-level gather.

        The per-axis query paths for the whole batch are derived
        together: start at ``cell + 1`` for every query at once and
        repeatedly clear the lowest set bit (a vectorised
        ``p -= p & -p``), recording one padded index column per level.
        The tree is then gathered once per level *combination* — at most
        ``prod_i ceil(log2 n_i + 1)`` vectorised reads regardless of the
        batch size.
        """
        normalized = [geometry.normalize_cell(cell, self.shape) for cell in cells]
        if not normalized:
            return []
        if not self._use_batch_path(len(normalized)):
            return [self.prefix_sum(cell) for cell in normalized]  # noqa: REP006 — below batch_crossover the scalar path walks beat the full level-combination gather
        count = len(normalized)
        coords = np.array(normalized, dtype=np.int64)
        axis_paths: list[tuple[np.ndarray, np.ndarray]] = []
        lengths = np.ones(count, dtype=np.int64)
        for axis in range(self.dims):
            position = coords[:, axis] + 1
            level_indices = []
            level_masks = []
            while np.any(position > 0):
                active = position > 0
                level_indices.append(np.where(active, position - 1, 0))
                level_masks.append(active)
                position = position - (position & -position)
            indices = np.stack(level_indices, axis=1)
            masks = np.stack(level_masks, axis=1)
            axis_paths.append((indices, masks))
            lengths *= masks.sum(axis=1)
        self.stats.cell_reads += int(lengths.sum())
        result = masked_path_gather(self._tree, axis_paths, count, self.dtype)
        return list(result)

    def add_many(self, updates) -> None:
        """Adaptive batch update.

        Point updates cost O(log^d n) each, a full rebuild pass costs
        O(n^d); the batch takes whichever is cheaper for its size.
        """
        combined = self._combined_updates(updates)
        if not combined:
            return
        per_update = 1
        for size in self.shape:
            per_update *= max(size.bit_length(), 1)
        if len(combined) * per_update < self._tree.size:
            for cell, delta in combined:
                self.add(cell, delta)  # noqa: REP006 — below the crossover, polylog point updates beat the rebuild pass
            return
        deltas = self._delta_array(combined)
        other = type(self).from_array(deltas, dtype=self.dtype)
        self._tree += other._tree
        self.stats.cell_writes += self._tree.size

    def memory_cells(self) -> int:
        return self._tree.size
