"""The relative prefix sum method of Geffner, Agrawal, El Abbadi, Smith (GAES99).

RPS keeps the prefix-sum method's O(1) queries while cutting the
worst-case update from O(n^d) to O(n^(d/2)).  The cube is partitioned
into blocks of side ``k ~ sqrt(n)``; prefix information is split into a
*local* component (prefix sums relative to each block's anchor) plus
*boundary* components describing everything before the block, so an
update never cascades past block boundaries in any single component.

Decomposition.  For a cell ``x`` in the block anchored at ``a``, the
global prefix region ``[0, x]`` factors per dimension into
``[0, a_i - 1] ∪ [a_i, x_i]``; expanding the product gives ``2^d``
disjoint sub-regions, indexed by the subset ``S`` of dimensions taking
the within-block part:

* ``S = all dims`` → the local relative prefix ``RP[x]`` (one array);
* every proper subset ``S`` → a *boundary family* ``F_S`` holding, for
  each block and each within-block offset along the dims in ``S``, the
  sum of the region that is block-cumulative in ``S`` and
  complete-before-block elsewhere.

A query reads one cell from each of the ``2^d`` components.  An update to
``A[x]`` touches, in each component, only cells that are in ``x``'s block
along the ``S`` dimensions and in strictly later blocks elsewhere —
``O(k^|S| * (n/k)^(d-|S|)) = O(n^(d/2))`` cells with ``k = sqrt(n)``.

Layout note (documented substitution): GAES99 packs the boundary
families into the zero-faces of each block of a single overlay array; we
store them as separate dense arrays.  Storage, query accesses, and update
complexity are identical up to constants, and the explicit layout makes
the structure independently verifiable.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .. import geometry
from ..exceptions import DimensionMismatchError, InvalidShapeError
from .base import RangeSumMethod

__all__ = ["RelativePrefixSumCube"]


class RelativePrefixSumCube(RangeSumMethod):
    """GAES99 relative prefix sums: O(1) queries, O(n^(d/2)) updates.

    Args:
        shape: logical cube shape.
        dtype: stored value dtype.
        block_side: within-block side length per dimension; defaults to
            ``round(sqrt(n_i))`` per dimension, the paper's optimum.
    """

    name = "rps"
    #: Each query needs 2^d component reads, so the gathers amortise
    #: sooner than for the plain prefix-sum cube (docs/algorithms.md §8).
    batch_crossover = 4

    def __init__(
        self,
        shape: Sequence[int],
        dtype=np.int64,
        block_side: int | Sequence[int] | None = None,
    ) -> None:
        super().__init__(shape, dtype)
        self.block_side = self._resolve_block_side(block_side)
        self.block_counts = tuple(
            -(-n // k) for n, k in zip(self.shape, self.block_side)
        )
        padded = tuple(m * k for m, k in zip(self.block_counts, self.block_side))
        self._padded = padded
        self._local = np.zeros(padded, dtype=self.dtype)
        self._families: dict[int, np.ndarray] = {}
        full_mask = (1 << self.dims) - 1
        for mask in range(full_mask):
            family_shape = tuple(
                padded[axis] if mask >> axis & 1 else self.block_counts[axis]
                for axis in range(self.dims)
            )
            self._families[mask] = np.zeros(family_shape, dtype=self.dtype)

    def _resolve_block_side(
        self, block_side: int | Sequence[int] | None
    ) -> tuple[int, ...]:
        if block_side is None:
            return tuple(max(1, round(math.sqrt(n))) for n in self.shape)
        if isinstance(block_side, int):
            block_side = (block_side,) * self.dims
        block_side = tuple(int(k) for k in block_side)
        if len(block_side) != self.dims:
            raise DimensionMismatchError(
                f"block_side has {len(block_side)} entries for {self.dims} dimensions"
            )
        if any(k < 1 for k in block_side):
            raise InvalidShapeError(f"block sides must be positive, got {block_side}")
        return block_side

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_array(cls, array: np.ndarray, **kwargs) -> "RelativePrefixSumCube":
        """Vectorised bulk build from a dense array."""
        array = np.asarray(array)
        method = cls(array.shape, dtype=kwargs.pop("dtype", array.dtype), **kwargs)
        padded = np.zeros(method._padded, dtype=method.dtype)
        padded[tuple(slice(0, n) for n in array.shape)] = array

        method._local = _blockwise_prefix(padded, method.block_side)
        border = _bordered_prefix(padded)
        for mask, family in method._families.items():
            method._families[mask] = method._build_family(mask, family.shape, border)
        method.stats.cell_writes += method.memory_cells()
        return method

    def _build_family(
        self, mask: int, family_shape: tuple[int, ...], border: np.ndarray
    ) -> np.ndarray:
        """Evaluate one boundary family from the zero-bordered global prefix.

        Inclusion-exclusion runs only over subsets of ``mask``: the
        before-block dimensions start at 0, so their low-corner terms hit
        the zero border and vanish.
        """
        in_mask = [axis for axis in range(self.dims) if mask >> axis & 1]
        base_vectors: list[np.ndarray] = []
        anchor_vectors: dict[int, np.ndarray] = {}
        for axis in range(self.dims):
            k = self.block_side[axis]
            if mask >> axis & 1:
                positions = np.arange(self._padded[axis])
                base_vectors.append(positions + 1)  # high corner, exclusive border index
                anchor_vectors[axis] = (positions // k) * k  # low corner
            else:
                blocks = np.arange(self.block_counts[axis])
                base_vectors.append(blocks * k)  # (anchor - 1) + 1 in border index space
        family = np.zeros(family_shape, dtype=self.dtype)
        for submask_bits in range(1 << len(in_mask)):
            vectors = list(base_vectors)
            sign = 1
            for position, axis in enumerate(in_mask):
                if submask_bits >> position & 1:
                    sign = -sign
                    vectors[axis] = anchor_vectors[axis]
            term = border[np.ix_(*vectors)]
            family = family + sign * term
        return family

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def prefix_sum(self, cell: Sequence[int] | int):
        """One read per component: ``2^d`` cell accesses total."""
        cell = geometry.normalize_cell(cell, self.shape)
        blocks = tuple(c // k for c, k in zip(cell, self.block_side))
        result = self.dtype.type(self._local[cell])
        self.stats.cell_reads += 1
        for mask, family in self._families.items():
            index = tuple(
                cell[axis] if mask >> axis & 1 else blocks[axis]
                for axis in range(self.dims)
            )
            result += family[index]
            self.stats.cell_reads += 1
        return self.dtype.type(result)

    def prefix_sum_many(self, cells: Sequence) -> list:
        """Batch queries as ``2^d`` fancy-index gathers — O(1) per query.

        Each component contributes one vectorised gather over the whole
        batch: the local array indexed by the cells themselves, each
        boundary family indexed by cell coordinates on its within-block
        dimensions and block numbers elsewhere.
        """
        normalized = [geometry.normalize_cell(cell, self.shape) for cell in cells]
        if not normalized:
            return []
        if not self._use_batch_path(len(normalized)):
            return [self.prefix_sum(cell) for cell in normalized]  # noqa: REP006 — below batch_crossover the 2^d scalar reads beat the gather setup
        coords = np.array(normalized, dtype=np.intp)
        blocks = coords // np.array(self.block_side, dtype=np.intp)
        gathered = self._local[tuple(coords.T)].astype(self.dtype, copy=True)
        self.stats.cell_reads += len(normalized)
        for mask, family in self._families.items():
            index = tuple(
                coords[:, axis] if mask >> axis & 1 else blocks[:, axis]
                for axis in range(self.dims)
            )
            gathered += family[index]
            self.stats.cell_reads += len(normalized)
        return [self.dtype.type(value) for value in gathered]

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add(self, cell: Sequence[int] | int, delta) -> None:
        """Update every component cell whose region contains ``cell``.

        Per component the touched cells form one rectangular slice:
        within-block tail positions along the ``S`` dimensions, strictly
        later blocks elsewhere — never more than O(n^(d/2)) cells.
        """
        cell = geometry.normalize_cell(cell, self.shape)
        delta = self.dtype.type(delta)
        blocks = tuple(c // k for c, k in zip(cell, self.block_side))

        local_slices = tuple(
            slice(c, (b + 1) * k)
            for c, b, k in zip(cell, blocks, self.block_side)
        )
        self._local[local_slices] += delta
        self.stats.cell_writes += _slice_volume(local_slices, self._padded)

        for mask, family in self._families.items():
            slices = []
            for axis in range(self.dims):
                if mask >> axis & 1:
                    k = self.block_side[axis]
                    slices.append(slice(cell[axis], (blocks[axis] + 1) * k))
                else:
                    slices.append(slice(blocks[axis] + 1, self.block_counts[axis]))
            slices = tuple(slices)
            volume = _slice_volume(slices, family.shape)
            if volume == 0:
                continue
            family[slices] += delta
            self.stats.cell_writes += volume

    def add_many(self, updates) -> None:
        """Batch update by absorbing a same-layout delta structure.

        A second RPS structure is bulk-built over the combined delta
        array (vectorised) and its components are folded in element-wise
        — O(n^d) for the whole batch.  Small batches fall back to the
        per-update path, which is cheaper while
        ``m * n^(d/2) < n^d``.
        """
        combined = self._combined_updates(updates)
        if not combined:
            return
        side = max(self.shape)
        sequential_cost = len(combined) * max(int(side ** (self.dims / 2)), 1)
        if sequential_cost < self._local.size:
            for cell, delta in combined:
                self.add(cell, delta)  # noqa: REP006 — below the crossover, per-update slices beat the full-cube pass
            return
        deltas = self._delta_array(combined)
        other = type(self).from_array(
            deltas, dtype=self.dtype, block_side=self.block_side
        )
        self._local += other._local
        for mask, family in self._families.items():
            family += other._families[mask]
        self.stats.cell_writes += self.memory_cells()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def memory_cells(self) -> int:
        return self._local.size + sum(f.size for f in self._families.values())


def _blockwise_prefix(padded: np.ndarray, block_side: Sequence[int]) -> np.ndarray:
    """Prefix sums computed independently inside each block (the RP array)."""
    result = padded.copy()
    for axis, k in enumerate(block_side):
        blocks = result.shape[axis] // k
        shape = (
            result.shape[:axis] + (blocks, k) + result.shape[axis + 1 :]
        )
        reshaped = result.reshape(shape)
        np.cumsum(reshaped, axis=axis + 1, out=reshaped)
        result = reshaped.reshape(padded.shape)
    return result


def _bordered_prefix(padded: np.ndarray) -> np.ndarray:
    """Global inclusive prefix array with a zero border on the low side.

    ``border[i_1, ..., i_d] = SUM(A[0 : i_1 - 1, ..., 0 : i_d - 1])`` so
    that index 0 along any axis denotes an empty prefix.
    """
    border = np.zeros(tuple(s + 1 for s in padded.shape), dtype=padded.dtype)
    border[tuple(slice(1, None) for _ in padded.shape)] = padded
    for axis in range(padded.ndim):
        np.cumsum(border, axis=axis, out=border)
    return border


def _slice_volume(slices: tuple[slice, ...], shape: tuple[int, ...]) -> int:
    """Number of cells addressed by ``array[slices]`` for ``array`` of ``shape``."""
    volume = 1
    for one_slice, size in zip(slices, shape):
        start, stop, _ = one_slice.indices(size)
        extent = max(0, stop - start)
        if extent == 0:
            return 0
        volume *= extent
    return volume
