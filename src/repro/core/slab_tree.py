"""Contiguous b-ary level slabs with branch-free batched descent.

The pointer-based :class:`~repro.core.ddc.DynamicDataCube` answers a
prefix sum by *walking* — each level is a Python attribute hop, each
child selection a comparison, each overlay read an interpreted index.
Pibiri & Venturini ("Practical Trade-Offs for the Prefix-Sum Problem")
show that on modern hardware the same recursion flattened into blocked
arrays beats the pointer walk by large constants: the per-level state
becomes *data* (a shift and a stride) instead of *control flow*, so a
whole batch of queries advances one level per step with a single
fancy-index gather.

This module stores the b-ary descent of a d-dimensional cube as one
contiguous buffer sliced into **level slabs**.  With branching factor
``b`` (a power of two) and per-axis heights ``H_k`` (``b**H_k`` covers
axis ``k``), there is one slab per *level combination*
``L = (l_1, ..., l_d)`` with ``l_k in range(H_k)``.  Along axis ``k`` it
has ``ceil(n_k / b**(H_k-1-l_k))`` positions — one per node the cube's
own ``n_k`` cells reach, the last sibling group of a level truncated as
in Pibiri & Venturini's O(n) trees — so all slabs together hold about
``prod(1 + 1/b + ...) * |A|`` cells.  Along axis ``k``:

* at an **internal** level ``l_k < H_k - 1`` the slab holds the
  *exclusive* sibling block prefix — entry ``p`` sums the subtrees of
  the siblings that precede ``p`` inside its parent node;
* at the **leaf** level ``l_k == H_k - 1`` it holds the *inclusive*
  running sum within the leaf block.

Because each per-axis operator is linear, the d-dimensional slab is
their tensor product, and the paper's recursive prefix sum collapses to
a branch-free sum of ``prod(H_k)`` gathers::

    prefix(i_1, ..., i_d) = sum over L of  slab_L[i_1 >> s_1, ...]

where ``s_k = (H_k - 1 - l_k) * log2(b)`` — child selection is a shift,
never a comparison.  Updates are the transpose: a point delta lands in
every slab as one small axis-aligned rectangle ``+=`` (the sibling
suffix on each axis, cut at the slab edge), and a *batch* applies per
slab whichever is less work: those rectangles, or a scatter into a
scratch plane followed by one blockwise ``cumsum`` per axis.

An optional :mod:`numba` kernel fuses the per-level gathers into one
jitted loop; it is feature-detected at import and the numpy gather path
is the always-available fallback (``HAVE_NUMBA`` / ``kernel_backend()``
report which one is live).
"""

from __future__ import annotations

import math
import os
from typing import Any, Callable, Sequence

import numpy as np

from ..exceptions import ConfigurationError, StructureError

__all__ = [
    "HAVE_NUMBA",
    "SlabTree",
    "expand_corners",
    "kernel_backend",
    "slab_prefix_gather",
    "slab_range_many",
]

Array = np.ndarray[Any, np.dtype[Any]]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the common (pure numpy) case
    _njit = None
    HAVE_NUMBA = False

#: Kill switch: ``REPRO_NO_NUMBA=1`` forces the numpy gather path even
#: when numba is importable (useful for A/B runs of the two kernels).
_NUMBA_DISABLED = bool(os.environ.get("REPRO_NO_NUMBA"))

_GATHER_KERNEL: Callable[..., None] | None = None

if HAVE_NUMBA and not _NUMBA_DISABLED:  # pragma: no cover - numba-only

    @_njit(cache=True)
    def _numba_gather(
        buffer: Array,
        offsets: Array,
        shifts: Array,
        strides: Array,
        coords: Array,
        out: Array,
    ) -> None:
        levels = offsets.shape[0]
        count = coords.shape[0]
        dims = coords.shape[1]
        for query in range(count):
            for level in range(levels):
                flat = offsets[level]
                for axis in range(dims):
                    flat += (coords[query, axis] >> shifts[level, axis]) * strides[
                        level, axis
                    ]
                out[query] = out[query] + buffer[flat]

    _GATHER_KERNEL = _numba_gather


def kernel_backend() -> str:
    """Which gather kernel is live: ``"numba"`` or ``"numpy"``."""
    return "numba" if _GATHER_KERNEL is not None else "numpy"


def expand_corners(lows: Array, highs: Array) -> tuple[Array, Array, Array]:
    """Inclusion-exclusion corner expansion for a batch of boxes.

    Given inclusive bounds ``lows`` / ``highs`` of shape ``(Q, d)``,
    returns ``(corners, valid, signs)`` where ``corners`` is the
    ``(Q * 2**d, d)`` array of prefix anchor cells (row-major by query,
    minor by corner mask), ``valid`` marks corners whose every
    coordinate is non-negative (a ``low - 1`` that underflows the cube
    contributes nothing), and ``signs`` is the length-``2**d``
    alternating sign pattern shared by every query.  Invalid corners are
    clamped to 0 so the caller can gather unconditionally and mask after.
    """
    count, dims = lows.shape
    combos = 1 << dims
    corners = np.empty((count, combos, dims), dtype=np.int64)
    signs = np.empty(combos, dtype=np.int64)
    for mask in range(combos):
        sign = 1
        for axis in range(dims):
            if (mask >> axis) & 1:
                corners[:, mask, axis] = lows[:, axis] - 1
                sign = -sign
            else:
                corners[:, mask, axis] = highs[:, axis]
        signs[mask] = sign
    flat = corners.reshape(count * combos, dims)
    valid = (flat >= 0).all(axis=1)
    np.maximum(flat, 0, out=flat)
    return flat, valid, signs


def slab_prefix_gather(slab: Array, coords: Array) -> Array:
    """Batched prefix-sum gather off a dense inclusive prefix slab.

    The degenerate single-level case of the b-ary layout: the whole
    cube is one leaf block whose slab *is* the HAMS97 prefix array, so a
    prefix sum is one fancy-index gather.  ``coords`` is ``(Q, d)``.
    """
    index = tuple(coords[:, axis] for axis in range(slab.ndim))
    return slab[index]


def slab_range_many(slab: Array, lows: Array, highs: Array) -> Array:
    """Vectorised inclusion-exclusion range sums off a prefix slab.

    Replaces the per-query Python corner construction: one corner
    expansion, one gather, one signed reduction for the whole batch.
    """
    count = lows.shape[0]
    corners, valid, signs = expand_corners(lows, highs)
    values = slab_prefix_gather(slab, corners)
    values[~valid] = 0
    combos = signs.shape[0]
    return (values.reshape(count, combos) * signs).sum(axis=1)


#: One rectangle ``+=``'s interpreter and dispatch time, in swept cells
#: (~2.4 us against ~3-4 ns a cell).  Hand-set from single-shot timings
#: on one machine: no end-to-end workload batches enough to reach it.
_RECT_CELLS = 512


class _LevelSlab:
    """One level combination: a contiguous slab view plus its geometry."""

    __slots__ = (
        "combo",
        "shape",
        "shifts",
        "strides",
        "start_offsets",
        "flat",
        "tensor",
        "shift_arr",
        "stride_arr",
        "offset_arr",
        "shape_arr",
        "plane_shape",
        "plane_cost",
        "offset",
    )

    def __init__(
        self,
        combo: tuple[int, ...],
        shape: tuple[int, ...],
        shifts: tuple[int, ...],
        start_offsets: tuple[int, ...],
        offset: int,
        branching: int,
    ) -> None:
        self.combo = combo
        self.shape = shape
        self.shifts = shifts
        self.start_offsets = start_offsets
        self.offset = offset
        strides = [1] * len(shape)
        for axis in range(len(shape) - 2, -1, -1):
            strides[axis] = strides[axis + 1] * shape[axis + 1]
        self.strides = tuple(strides)
        self.shift_arr = np.asarray(shifts, dtype=np.int64)
        self.stride_arr = np.asarray(self.strides, dtype=np.int64)
        self.offset_arr = np.asarray(start_offsets, dtype=np.int64)
        self.shape_arr = np.asarray(shape, dtype=np.int64)
        # The plane update's scratch is the slab padded to whole sibling
        # groups; it is swept to zero it, per axis to cumsum it, to add it.
        self.plane_shape = tuple(-(-n // branching) * branching for n in shape)
        self.plane_cost = (len(shape) + 2) * math.prod(self.plane_shape)
        # ``flat`` / ``tensor`` are bound by SlabTree once the shared
        # buffer exists; declared here so __slots__ carries them.
        self.flat: Array | None = None
        self.tensor: Array | None = None

    @property
    def cells(self) -> int:
        return int(self.stride_arr[0] * self.shape[0])


class SlabTree:
    """b-ary level-slab decomposition of a d-dimensional cube.

    All storage lives in one contiguous ``buffer``; every level slab is
    a reshaped view into it, so the structure is exactly the "flat
    slabs" layout the shared-memory store ships between processes.

    Args:
        shape: logical cube shape ``(n_1, ..., n_d)``.
        dtype: stored value dtype (must support exact add/subtract).
        branching: children per node ``b``; must be a power of two
            (child selection is a shift, the layout's whole point).
    """

    def __init__(
        self,
        shape: Sequence[int],
        dtype: Any = np.int64,
        branching: int = 16,
    ) -> None:
        self.shape: tuple[int, ...] = tuple(int(n) for n in shape)
        if not self.shape or any(n < 1 for n in self.shape):
            raise ConfigurationError(f"invalid slab-tree shape {self.shape!r}")
        if branching < 2 or branching & (branching - 1):
            raise ConfigurationError(
                f"branching must be a power of two >= 2, got {branching}"
            )
        self.dims = len(self.shape)
        self.dtype = np.dtype(dtype)
        self.branching = int(branching)
        self._log2b = self.branching.bit_length() - 1
        heights = []
        for extent in self.shape:
            height = 1
            while self.branching**height < extent:
                height += 1
            heights.append(height)
        self.heights: tuple[int, ...] = tuple(heights)
        self._levels: list[_LevelSlab] = []
        offset = 0
        for combo in _level_combos(self.heights):
            shifts = tuple(
                (self.heights[axis] - 1 - combo[axis]) * self._log2b
                for axis in range(self.dims)
            )
            # One position per node the cube's own cells reach: the slot
            # of the last cell plus one, not the full ``b**(level+1)``.
            slab_shape = tuple(
                ((extent - 1) >> shift) + 1
                for extent, shift in zip(self.shape, shifts)
            )
            start_offsets = tuple(
                0 if combo[axis] == self.heights[axis] - 1 else 1
                for axis in range(self.dims)
            )
            level = _LevelSlab(
                combo, slab_shape, shifts, start_offsets, offset, self.branching
            )
            offset += level.cells
            self._levels.append(level)
        self.buffer: Array = np.zeros(offset, dtype=self.dtype)
        for level in self._levels:
            size = level.cells
            level.flat = self.buffer[level.offset : level.offset + size]
            level.tensor = level.flat.reshape(level.shape)
        self._offsets = np.asarray(
            [level.offset for level in self._levels], dtype=np.int64
        )
        self._shift_mat = np.stack([level.shift_arr for level in self._levels])
        self._stride_mat = np.stack([level.stride_arr for level in self._levels])
        # Reusable per-axis slice scratch for the rectangle updates (the
        # structures are externally synchronised, like every method).
        self._slice_scratch: list[slice] = [slice(None)] * self.dims

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def level_count(self) -> int:
        """Number of level slabs (``prod(H_k)`` gathers per prefix sum)."""
        return len(self._levels)

    def level_layout(self) -> list[dict[str, Any]]:
        """Per-slab geometry rows (benchmarks and docs render these)."""
        rows: list[dict[str, Any]] = []
        for level in self._levels:
            rows.append(
                {
                    "combo": list(level.combo),
                    "shape": list(level.shape),
                    "cells": level.cells,
                    "shifts": list(level.shifts),
                }
            )
        return rows

    def memory_cells(self) -> int:
        """Cells stored across every level slab."""
        return int(self.buffer.size)

    def validate(self) -> None:
        """Re-derive every level slab from the cube the buffer implies.

        The decomposition is canonical: ``load_dense`` is a
        deterministic function of the dense contents, and the dense
        contents are recoverable from the stored slabs by differencing
        the prefix sums.  A corrupted slab cell therefore breaks the
        round trip — the slabs rebuilt from the implied cube no longer
        match the stored buffer.  Intended for audits on small cubes
        (it materialises the dense contents).  Raises
        :class:`StructureError` on any mismatch.
        """
        grids = np.meshgrid(
            *(np.arange(extent) for extent in self.shape), indexing="ij"
        )
        coords = np.stack(
            [grid.reshape(-1) for grid in grids], axis=1
        ).astype(np.int64)
        dense = np.asarray(self.prefix_many(coords)).reshape(self.shape)
        for axis in range(self.dims):
            dense = np.diff(dense, axis=axis, prepend=0)
        mirror = SlabTree(self.shape, dtype=self.dtype, branching=self.branching)
        mirror.load_dense(dense)
        if not np.array_equal(mirror.buffer, self.buffer):
            bad = int(np.flatnonzero(mirror.buffer != self.buffer)[0])
            for level in self._levels:
                if level.offset <= bad < level.offset + level.cells:
                    local = bad - level.offset
                    raise StructureError(
                        f"slab {level.combo} cell {local} inconsistent: "
                        f"stored {self.buffer[bad]} != derived "
                        f"{mirror.buffer[bad]}"
                    )
            raise StructureError(  # pragma: no cover - offsets cover buffer
                f"buffer cell {bad} outside every level slab"
            )

    # ------------------------------------------------------------------
    # Bulk build
    # ------------------------------------------------------------------

    def load_dense(self, array: Array) -> None:
        """Recompute every level slab from a dense cube (vectorised)."""
        dense = np.asarray(array, dtype=self.dtype)
        if dense.shape != self.shape:
            raise ConfigurationError(
                f"dense cube of shape {dense.shape} does not fit slab tree {self.shape}"
            )
        for level in self._levels:
            projected = dense
            for axis in range(self.dims):
                projected = self._axis_project(projected, axis, level)
            tensor = level.tensor
            if tensor is not None:
                tensor[...] = projected

    def _axis_project(self, array: Array, axis: int, level: _LevelSlab) -> Array:
        """Apply one axis's operator for ``level`` (see module docs).

        Zero-pads only to the next whole block, then (one value per
        block) to the next whole sibling group; crops back to the slab.
        """
        positions = level.shape[axis]
        block = 1 << level.shifts[axis]
        moved = np.moveaxis(array, axis, -1)
        if block > 1:
            moved = _pad_last(moved, positions * block)
            moved = moved.reshape(moved.shape[:-1] + (positions, block)).sum(axis=-1)
        moved = _pad_last(moved, level.plane_shape[axis])
        if level.start_offsets[axis]:
            # Exclusive: a slot sums the siblings before it, the first none.
            shifted = np.zeros_like(moved)
            shifted[..., 1:] = moved[..., :-1]
            shifted[..., :: self.branching] = 0
            moved = shifted
        sums = _sibling_cumsum(moved, moved.ndim - 1, self.branching)
        return np.moveaxis(sums[..., :positions], -1, axis)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def prefix_one(self, cell: Sequence[int]) -> Any:
        """Scalar prefix sum: ``level_count`` shift-indexed reads."""
        total = self.dtype.type(0)
        buffer = self.buffer
        for level in self._levels:
            flat = level.offset
            for axis in range(self.dims):
                flat += (cell[axis] >> level.shifts[axis]) * level.strides[axis]
            total = total + buffer[flat]
        return total

    def gather_level(self, index: int, coords: Array) -> Array:
        """One level slab's contribution for a coordinate batch.

        The benchmark's per-level probe: one shift, one multiply-add,
        one fancy-index gather — the branch-free descent step.
        """
        level = self._levels[index]
        flat = ((coords >> level.shift_arr) * level.stride_arr).sum(axis=1)
        flat += level.offset
        return self.buffer[flat]

    def prefix_many(self, coords: Array) -> Array:
        """Batched prefix sums for ``(Q, d)`` coordinates (branch-free)."""
        count = coords.shape[0]
        out = np.zeros(count, dtype=self.dtype)
        if _GATHER_KERNEL is not None:  # pragma: no cover - numba-only
            _GATHER_KERNEL(
                self.buffer,
                self._offsets,
                self._shift_mat,
                self._stride_mat,
                np.ascontiguousarray(coords, dtype=np.int64),
                out,
            )
            return out
        for index in range(len(self._levels)):
            out += self.gather_level(index, coords)
        return out

    def range_many(self, lows: Array, highs: Array) -> Array:
        """Batched inclusive range sums via vectorised corner expansion."""
        count = lows.shape[0]
        corners, valid, signs = expand_corners(lows, highs)
        values = self.prefix_many(corners)
        values[~valid] = 0
        combos = signs.shape[0]
        return (values.reshape(count, combos) * signs).sum(axis=1)

    @staticmethod
    def valid_corner_count(lows: Array) -> int:
        """How many non-empty inclusion-exclusion corners a batch touches."""
        return int(np.prod(np.where(lows > 0, 2, 1), axis=1).sum())

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add_one(self, cell: Sequence[int], delta: Any) -> int:
        """Point update: one sibling-suffix rectangle ``+=`` per slab.

        Returns the number of cells written (the cost-model charge).
        """
        written = 0
        log2b = self._log2b
        scratch = self._slice_scratch
        for level in self._levels:
            size = 1
            empty = False
            for axis in range(self.dims):
                slot = cell[axis] >> level.shifts[axis]
                end = min(((slot >> log2b) + 1) << log2b, level.shape[axis])
                start = slot + level.start_offsets[axis]
                if start >= end:
                    empty = True
                    break
                scratch[axis] = slice(start, end)
                size *= end - start
            if empty:
                continue
            tensor = level.tensor
            if tensor is not None:
                tensor[tuple(scratch)] += delta
            written += size
        return written

    def add_batch(self, cells: Array, deltas: Array) -> int:
        """Batched point updates: vectorised scatter along every path.

        Per level slab the batch applies as per-update rectangle ``+=``
        or, when those rectangles (their cells plus ``_RECT_CELLS``
        each) cost more than the plane's ``d + 2`` sweeps of the slab,
        as one scatter into a scratch plane followed by a blockwise
        ``cumsum`` per axis.  Returns the number of cells written (the
        rectangles' volume on either path).
        """
        written = 0
        log2b = self._log2b
        for level in self._levels:
            tensor = level.tensor
            if tensor is None:  # pragma: no cover - defensive
                continue
            slots = cells >> level.shift_arr
            ends = np.minimum(((slots >> log2b) + 1) << log2b, level.shape_arr)
            starts = slots + level.offset_arr
            # A last sibling has no suffix at an internal level: volume 0.
            volumes = (ends - starts).prod(axis=1)
            volume = int(volumes.sum())
            written += volume
            hit = volumes > 0
            if volume + _RECT_CELLS * np.count_nonzero(hit) >= level.plane_cost:
                self._add_plane(level, tensor, starts[hit], deltas[hit])
                continue
            for low, high, delta, cells_hit in zip(
                starts.tolist(), ends.tolist(), deltas, volumes.tolist()
            ):
                if cells_hit:
                    tensor[tuple(map(slice, low, high))] += delta
        return written

    def _add_plane(
        self, level: _LevelSlab, tensor: Array, starts: Array, deltas: Array
    ) -> None:
        """Scatter ``deltas`` at the rectangles' low corners, then one
        blockwise ``cumsum`` per axis spreads each over its sibling suffix."""
        plane = np.zeros(level.plane_shape, dtype=self.dtype)
        np.add.at(plane, tuple(starts.T), deltas)
        for axis in range(self.dims):
            plane = _sibling_cumsum(plane, axis, self.branching)
        tensor += plane[tuple(map(slice, level.shape))]


def _sibling_cumsum(array: Array, axis: int, branching: int) -> Array:
    """Running sums along ``axis``, restarted at every group of ``b``."""
    shape = array.shape
    split = shape[:axis] + (shape[axis] // branching, branching) + shape[axis + 1 :]
    return np.cumsum(array.reshape(split), axis=axis + 1).reshape(shape)


def _pad_last(array: Array, size: int) -> Array:
    """``array`` zero-padded along its last axis to ``size`` entries."""
    if array.shape[-1] == size:
        return array
    padded = np.zeros(array.shape[:-1] + (size,), dtype=array.dtype)
    padded[..., : array.shape[-1]] = array
    return padded


def _level_combos(heights: Sequence[int]) -> list[tuple[int, ...]]:
    """All level combinations, lexicographic (root-most first)."""
    combos: list[tuple[int, ...]] = [()]
    for height in heights:
        combos = [combo + (level,) for combo in combos for level in range(height)]
    return combos
