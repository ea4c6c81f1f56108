"""Vectorised b-ary descent method over contiguous level slabs.

:class:`VectorSlabCube` wraps :class:`~repro.core.slab_tree.SlabTree`
in the standard :class:`~repro.methods.base.RangeSumMethod` contract:
the pure-python :class:`~repro.core.ddc.DynamicDataCube` stays the
*reference* implementation of the paper's algorithm, and this backend
is the production descent core — the same b-ary recursion stored as
flat numpy slabs and walked branch-free, one fancy-index gather per
level for a whole query batch at once.

Cost accounting matches the reference's model: every prefix sum charges
one ``node_visit`` and one ``cell_read`` per level slab (the descent
touches exactly one cell per level), and updates charge the cells their
sibling-suffix rectangles cover inside the slabs (which are sized to
the cube, so nothing is charged for padding) — identical totals whether
a batch runs the vectorised path or the adaptive scalar fallback, and
whichever way ``SlabTree.add_batch`` applies a slab's rectangles, so the
benchmark counters stay deterministic across crossover decisions.  The
fallbacks go straight to the tree: a batch's cells are normalised once.
"""

from __future__ import annotations

from typing import Any, ClassVar, Sequence

import numpy as np

from .. import geometry
from ..core.slab_tree import SlabTree, kernel_backend
from .base import RangeSumMethod

__all__ = ["VectorSlabCube"]

Array = np.ndarray[Any, np.dtype[Any]]


class VectorSlabCube(RangeSumMethod):
    """b-ary level-slab cube with branch-free batched traversal.

    Args:
        shape: logical cube shape.
        dtype: stored value dtype.
        branching: slab-tree branching factor (power of two, default 16
            — one node's children span two cache lines of int64).
    """

    name: ClassVar[str] = "vector"
    #: The batch path's setup is a handful of small array ops, so it
    #: wins from about a dozen queries (docs/algorithms.md §8).  It is
    #: measured on reads and also gates ``add_many``, whose batch path
    #: does no more work than the scalar loop at any size.
    batch_crossover = 12

    def __init__(
        self,
        shape: Sequence[int],
        dtype: Any = np.int64,
        branching: int = 16,
    ) -> None:
        super().__init__(shape, dtype=dtype)
        self.tree = SlabTree(self.shape, dtype=self.dtype, branching=branching)

    @classmethod
    def from_array(cls, array: Array, **kwargs: Any) -> "VectorSlabCube":
        """Vectorised bulk build: one blockwise projection per slab."""
        array = np.asarray(array)
        method = cls(array.shape, dtype=kwargs.pop("dtype", array.dtype), **kwargs)
        method.tree.load_dense(array.astype(method.dtype, copy=False))
        method.stats.cell_writes += method.tree.memory_cells()
        return method

    @property
    def kernel(self) -> str:
        """Live gather backend: ``"numba"`` or ``"numpy"``."""
        return kernel_backend()

    def _bind_instruments(self, obs: Any) -> None:
        super()._bind_instruments(obs)
        depth = obs.descent_depth
        self._obs_prefix_depth = depth.labels(structure="slab-tree", op="prefix")
        self._obs_add_depth = depth.labels(structure="slab-tree", op="add")

    def _charge_reads(self, descents: int) -> None:
        """Charge ``descents`` prefix descents (one cell per level each);
        the depth, always ``level_count``, is observed once per call."""
        levels = self.tree.level_count
        self.stats.node_visits += levels * descents
        self.stats.cell_reads += levels * descents
        if self._obs.enabled:
            self._obs_prefix_depth.observe(levels)

    def _charge_writes(self, cells: int, written: int) -> None:
        """Charge an update of ``cells`` cells writing ``written`` slab cells."""
        self.stats.node_visits += self.tree.level_count * cells
        self.stats.cell_writes += written
        if self._obs.enabled:
            self._obs_add_depth.observe(self.tree.level_count)

    def _corner_sum(self, low: Any, high: Any) -> tuple[Any, int]:
        """Figure 4's corner combination straight off the tree, for
        normalised bounds: ``(sum, prefix descents taken)``."""
        total = self._native(0)
        corners = 0
        for sign, corner in geometry.inclusion_exclusion_corners(low, high):
            if corner is not None:
                corners += 1
                term = self.tree.prefix_one(corner)
                total = total + term if sign > 0 else total - term
        return total, corners

    # ------------------------------------------------------------------
    # Point access
    # ------------------------------------------------------------------

    def prefix_sum(self, cell: Sequence[int] | int) -> Any:
        cell = geometry.normalize_cell(cell, self.shape)
        self._charge_reads(1)
        return self.tree.prefix_one(cell)

    def _range_sum_corners(self, low: Any, high: Any) -> Any:
        total, corners = self._corner_sum(*geometry.normalize_range(low, high, self.shape))
        self._charge_reads(corners)
        return total

    def add(self, cell: Sequence[int] | int, delta: Any) -> None:
        cell = geometry.normalize_cell(cell, self.shape)
        self._charge_writes(1, self.tree.add_one(cell, self._native(delta)))

    # ------------------------------------------------------------------
    # Batch paths
    # ------------------------------------------------------------------

    def prefix_sum_many(self, cells: Sequence[Any]) -> list[Any]:
        normalized = [geometry.normalize_cell(cell, self.shape) for cell in cells]
        if not self._use_batch_path(len(normalized)):
            return [self.prefix_sum(cell) for cell in normalized]
        coords = np.asarray(normalized, dtype=np.int64).reshape(
            len(normalized), self.dims
        )
        self._charge_reads(len(normalized))
        return list(self.tree.prefix_many(coords))

    def range_sum_many(self, ranges: Sequence[Any]) -> list[Any]:
        bounds = [self._query_bounds(item) for item in ranges]
        if not self._use_batch_path(len(bounds)):
            # Bounds are normalised already: sum the corners straight off
            # the tree, charging what the batch path charges.
            results: list[Any] = []
            corners = 0
            for low, high in bounds:
                total, taken = self._corner_sum(low, high)
                results.append(total)
                corners += taken
        else:
            lows = np.asarray([low for low, _ in bounds], dtype=np.int64).reshape(
                len(bounds), self.dims
            )
            highs = np.asarray([high for _, high in bounds], dtype=np.int64).reshape(
                len(bounds), self.dims
            )
            corners = self.tree.valid_corner_count(lows)
            results = list(self.tree.range_many(lows, highs))
        self._charge_reads(corners)
        return results

    def add_many(self, updates: Sequence[tuple[Any, Any]]) -> None:
        combined = self._combined_updates(updates)
        if not combined:
            return
        if not self._use_batch_path(len(combined)):
            # Cells are normalised already: no second pass through add().
            written = 0
            for cell, delta in combined:
                written += self.tree.add_one(cell, self._native(delta))
        else:
            cells = np.asarray([cell for cell, _ in combined], dtype=np.int64)
            deltas = np.asarray(
                [self._native(delta) for _, delta in combined], dtype=self.dtype
            )
            written = self.tree.add_batch(cells, deltas)
        self._charge_writes(len(combined), written)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def memory_cells(self) -> int:
        return self.tree.memory_cells()

    def validate(self) -> None:
        """Audit hook: re-derive every level slab from the implied cube.

        Raises :class:`~repro.exceptions.StructureError` on any
        inconsistent slab cell (see :meth:`SlabTree.validate`).
        """
        self.tree.validate()

    def _native(self, delta: Any) -> Any:
        """Coerce a delta into the slab dtype's scalar domain."""
        return self.dtype.type(delta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VectorSlabCube(shape={self.shape}, dtype={self.dtype}, "
            f"branching={self.tree.branching}, kernel={self.kernel!r})"
        )
