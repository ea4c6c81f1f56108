"""d-dimensional segment tree baseline.

The second textbook O(log^d n) comparator (alongside the Fenwick tree):
a nested segment tree answers *arbitrary* range sums directly — no
prefix-sum inclusion-exclusion — by decomposing each dimension's range
into O(log n) canonical nodes and summing the cross product of node
cells.  The price is storage: every dimension doubles the array, so the
structure holds ``(2 n_pad)^d`` cells, ~2^d times the cube.

Like the Fenwick tree, it is dense and fixed-size: no growth, no
sparsity — which is precisely the gap the Dynamic Data Cube fills.
Included for the novelty ablation (experiment A1 in DESIGN.md).
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

import numpy as np

from .. import geometry
from .base import RangeSumMethod, masked_path_gather

__all__ = ["SegmentTreeCube"]


def _update_path(index: int, size: int) -> list[int]:
    """Tree cells covering leaf ``index`` (leaf-to-root), 0-based array."""
    path = []
    position = index + size
    while position >= 1:
        path.append(position)
        position //= 2
    return path


def _cover_nodes(low: int, high: int, size: int) -> list[int]:
    """Canonical nodes exactly covering the inclusive leaf range."""
    nodes = []
    left = low + size
    right = high + size + 1  # exclusive
    while left < right:
        if left & 1:
            nodes.append(left)
            left += 1
        if right & 1:
            right -= 1
            nodes.append(right)
        left //= 2
        right //= 2
    return nodes


class SegmentTreeCube(RangeSumMethod):
    """Nested segment trees: O(log^d n) queries and updates, dense storage."""

    name = "segtree"
    #: Like the Fenwick gather, the padded canonical-cover gather visits
    #: every level combination regardless of batch size
    #: (docs/algorithms.md §8).
    batch_crossover = 53

    def __init__(self, shape: Sequence[int], dtype=np.int64) -> None:
        super().__init__(shape, dtype)
        self._sizes = tuple(geometry.next_power_of_two(n) for n in self.shape)
        self._tree = np.zeros(tuple(2 * s for s in self._sizes), dtype=self.dtype)

    @classmethod
    def from_array(cls, array: np.ndarray, **kwargs) -> "SegmentTreeCube":
        """Bulk build: seed the leaves, then sum each level, axis by axis."""
        array = np.asarray(array)
        method = cls(array.shape, dtype=kwargs.pop("dtype", array.dtype), **kwargs)
        tree = method._tree
        leaf_region = tuple(
            slice(size, size + n) for size, n in zip(method._sizes, array.shape)
        )
        tree[leaf_region] = array
        for axis, size in enumerate(method._sizes):
            moved = np.moveaxis(tree, axis, 0)
            for position in range(size - 1, 0, -1):
                moved[position] = moved[2 * position] + moved[2 * position + 1]
        method.stats.cell_writes += tree.size
        return method

    def add(self, cell: Sequence[int] | int, delta) -> None:
        cell = geometry.normalize_cell(cell, self.shape)
        delta = self.dtype.type(delta)
        paths = [
            _update_path(coordinate, size)
            for coordinate, size in zip(cell, self._sizes)
        ]
        for index in product(*paths):
            self._tree[index] += delta
            self.stats.cell_writes += 1

    def get(self, cell: Sequence[int] | int):
        cell = geometry.normalize_cell(cell, self.shape)
        leaf = tuple(c + s for c, s in zip(cell, self._sizes))
        self.stats.cell_reads += 1
        return self.dtype.type(self._tree[leaf])

    def range_sum(self, low: Sequence[int] | int, high: Sequence[int] | int):
        """Direct canonical-node decomposition — no prefix subtraction."""
        low_cell, high_cell = geometry.normalize_range(low, high, self.shape)
        covers = [
            _cover_nodes(lo, hi, size)
            for lo, hi, size in zip(low_cell, high_cell, self._sizes)
        ]
        result = self._zero()
        for index in product(*covers):
            result += self._tree[index]
            self.stats.cell_reads += 1
        return self.dtype.type(result)

    def prefix_sum(self, cell: Sequence[int] | int):
        cell = geometry.normalize_cell(cell, self.shape)
        return self.range_sum((0,) * self.dims, cell)

    def range_sum_many(self, ranges: Sequence) -> list:
        """Batch ranges via padded canonical-node gathers.

        The per-query canonical covers along each axis are padded to the
        batch-wide maximum width, so the whole batch is answered with one
        vectorised gather per *level combination* instead of one scalar
        read per (query, node cross product) pair.
        """
        queries = [self._query_bounds(item) for item in ranges]
        if not queries:
            return []
        if not self._use_batch_path(len(queries)):
            return [self.range_sum(low, high) for low, high in queries]  # noqa: REP006 — below batch_crossover the scalar cover walks beat the padded gather
        count = len(queries)
        axis_paths: list[tuple[np.ndarray, np.ndarray]] = []
        lengths = np.ones(count, dtype=np.int64)
        for axis, size in enumerate(self._sizes):
            covers = [
                _cover_nodes(low[axis], high[axis], size) for low, high in queries
            ]
            width = max(len(nodes) for nodes in covers)
            indices = np.zeros((count, width), dtype=np.intp)
            mask = np.zeros((count, width), dtype=bool)
            for row, nodes in enumerate(covers):
                indices[row, : len(nodes)] = nodes
                mask[row, : len(nodes)] = True
            axis_paths.append((indices, mask))
            lengths *= mask.sum(axis=1)
        self.stats.cell_reads += int(lengths.sum())
        result = masked_path_gather(self._tree, axis_paths, count, self.dtype)
        return list(result)

    def prefix_sum_many(self, cells: Sequence) -> list:
        """Batch prefix queries as origin-anchored batch range queries."""
        origin = (0,) * self.dims
        return self.range_sum_many(
            [(origin, geometry.normalize_cell(cell, self.shape)) for cell in cells]
        )

    def memory_cells(self) -> int:
        return self._tree.size
