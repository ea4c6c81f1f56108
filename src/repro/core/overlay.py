"""Overlay boxes (Sections 3.1 and 4.2 of the paper).

An overlay box summarises one ``k^d`` region of the cube for its parent
tree node.  It stores:

* the **subtotal** ``S`` — the sum of every cell the box covers, and
* ``d`` groups of **row sum values**; group ``t`` describes, for each
  cross-position ``y`` over the other ``d-1`` dimensions, the cumulative
  sum of complete dimension-``t`` rows up to ``y``.

During a query each non-descended overlay box contributes at most one
value: the subtotal when the target region swallows the whole box, or a
single cumulative row-sum value when the region cuts the box (Figure 10).

Two implementations are provided, matching the paper's two structures:

* :class:`ArrayOverlay` (Basic DDC, Section 3) stores each group as a
  dense *cumulative* array.  Reads are O(1); a point update must rewrite
  every cumulative entry dominating the cell — the O(k^(d-1)) cascade the
  paper identifies as the Basic tree's weakness (Figure 13).
* :class:`TreeOverlay` (DDC, Section 4) stores each group's
  *non-cumulative* row totals in a secondary structure — a B^c tree when
  the group is one-dimensional, a recursive (d-1)-dimensional Dynamic
  Data Cube otherwise (Section 4.2), or a Fenwick tree under the
  engineering ablation.  Reads and updates are both O(log^(d-1) k).
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from ..counters import OpCounter
from .keyed_bc_tree import KeyedBcTree

__all__ = [
    "Cross",
    "OverlayBox",
    "ArrayOverlay",
    "TreeOverlay",
    "OVERLAY_KINDS",
]

Cross = tuple[int, ...]


class OverlayBox(Protocol):
    """What a primary-tree node needs from an overlay box."""

    def subtotal(self):
        """Sum of every cell the box covers (the S cell)."""

    def row_value(self, group: int, cross: Cross):
        """Cumulative row-sum value of ``group`` at cross-position ``cross``.

        ``cross`` has ``d - 1`` coordinates (dimension ``group`` removed),
        each in ``[0, k - 1]``; a coordinate of ``k - 1`` means the full
        extent of that dimension is included.
        """

    def row_value_many(self, group: int, crosses: Sequence[Cross]) -> list:
        """Batch form of :meth:`row_value`: one value per cross-position.

        The path-sharing batch traversal collects every distinct
        row-sum read a node's queries need and issues them here as one
        call, so tree-backed overlays can answer them with a single
        shared descent of the secondary structure.
        """

    def apply_delta(self, offsets: Cross, delta) -> None:
        """Propagate a cell update at within-box ``offsets`` (d coordinates)."""

    def apply_delta_many(self, items: Sequence[tuple[Cross, object]]) -> None:
        """Batch form of :meth:`apply_delta` for ``(offsets, delta)`` items."""

    def memory_cells(self) -> int:
        """Stored values, for the Table 2 storage accounting."""


def _drop_axis(offsets: Sequence[int], axis: int) -> Cross:
    """Cross-position: ``offsets`` with coordinate ``axis`` removed."""
    return tuple(offsets[:axis]) + tuple(offsets[axis + 1 :])


class ArrayOverlay:
    """Basic DDC overlay: cumulative row-sum groups in dense arrays."""

    __slots__ = ("side", "dims", "_subtotal", "_groups", "_counter")

    def __init__(
        self, side: int, dims: int, counter: OpCounter, dtype=np.int64, **_: object
    ):
        self.side = side
        self.dims = dims
        self._counter = counter
        self._subtotal = 0
        group_shape = (side,) * (dims - 1)
        self._groups = [np.zeros(group_shape, dtype=dtype) for _ in range(dims)] if dims > 1 else []

    @classmethod
    def from_dense(
        cls, region: np.ndarray, counter: OpCounter, **_: object
    ) -> "ArrayOverlay":
        """Bulk-build the overlay for a dense ``k^d`` region."""
        overlay = cls(region.shape[0], region.ndim, counter, dtype=region.dtype)
        overlay._subtotal = region.sum().item()
        for axis in range(region.ndim if region.ndim > 1 else 0):
            rows = region.sum(axis=axis)
            for cross_axis in range(rows.ndim):
                np.cumsum(rows, axis=cross_axis, out=rows)
            overlay._groups[axis] = rows
        counter.cell_writes += overlay.memory_cells()
        return overlay

    def subtotal(self):
        self._counter.touch(self)
        self._counter.cell_reads += 1
        return self._subtotal

    def row_value(self, group: int, cross: Cross):
        self._counter.touch(self)
        self._counter.cell_reads += 1
        return self._groups[group][tuple(cross)].item()

    def row_value_many(self, group: int, crosses: Sequence[Cross]) -> list:
        """Batch row-sum reads as one fancy-index gather."""
        self._counter.touch(self)
        self._counter.cell_reads += len(crosses)
        array = self._groups[group]
        index = tuple(
            np.array([cross[axis] for cross in crosses], dtype=np.intp)
            for axis in range(array.ndim)
        )
        return [value.item() for value in array[index]]

    def apply_delta(self, offsets: Cross, delta) -> None:
        """The cascading group update of Section 3.3.

        Every cumulative entry at or beyond the cell's cross-position, in
        every group, includes the updated cell — O(d * k^(d-1)) writes in
        the worst case (offsets at the origin of the box).
        """
        self._counter.touch(self)
        self._subtotal += delta
        self._counter.cell_writes += 1
        for axis, group in enumerate(self._groups):
            cross = _drop_axis(offsets, axis)
            region = tuple(slice(position, None) for position in cross)
            group[region] += delta
            touched = 1
            for position in cross:
                touched *= self.side - position
            self._counter.cell_writes += touched

    def apply_delta_many(self, items: Sequence[tuple[Cross, object]]) -> None:
        """Adaptive batch cascade.

        The subtotal absorbs the whole batch in one write.  Each group
        either replays the per-update slice cascades (cheap for small
        batches) or, once their combined footprint exceeds the group
        size, folds a point-mass delta array through one cumulative pass
        — O(k^(d-1)) for the whole batch.
        """
        self._counter.touch(self)
        self._subtotal += sum(delta for _, delta in items)
        self._counter.cell_writes += 1
        for axis, group in enumerate(self._groups):
            updates = [(_drop_axis(offsets, axis), delta) for offsets, delta in items]
            touched_total = 0
            for cross, _ in updates:
                touched = 1
                for position in cross:
                    touched *= self.side - position
                touched_total += touched
            if touched_total <= group.size:
                for cross, delta in updates:
                    region = tuple(slice(position, None) for position in cross)
                    group[region] += delta
                self._counter.cell_writes += touched_total
            else:
                deltas = np.zeros(group.shape, dtype=group.dtype)
                for cross, delta in updates:
                    deltas[cross] += delta
                for cross_axis in range(deltas.ndim):
                    np.cumsum(deltas, axis=cross_axis, out=deltas)
                group += deltas
                self._counter.cell_writes += group.size

    def memory_cells(self) -> int:
        return 1 + sum(group.size for group in self._groups)

    def validate(self) -> None:
        """Check box invariants; raise :class:`StructureError` on failure.

        Verifies that every group's cumulative corner equals the cached
        subtotal.  :func:`repro.analysis.audit` performs the deeper check
        against the covered cells when a mirror region is available.
        """
        from ..analysis.audit import audit

        audit(self)


class TreeOverlay:
    """DDC overlay: row-sum groups held in secondary structures.

    Groups are created lazily — an overlay covering an all-zero region
    costs a single subtotal cell until data arrives, which is what makes
    sparse and clustered cubes cheap (Section 5).
    """

    __slots__ = (
        "side",
        "dims",
        "_subtotal",
        "_groups",
        "_counter",
        "_dtype",
        "_secondary_kind",
        "_bc_fanout",
    )

    def __init__(
        self,
        side: int,
        dims: int,
        counter: OpCounter,
        dtype=np.int64,
        secondary_kind: str = "ddc",
        bc_fanout: int = 16,
    ):
        self.side = side
        self.dims = dims
        self._counter = counter
        self._dtype = np.dtype(dtype)
        self._secondary_kind = secondary_kind
        self._bc_fanout = bc_fanout
        self._subtotal = 0
        self._groups: list = [None] * dims if dims > 1 else []

    @classmethod
    def from_dense(
        cls,
        region: np.ndarray,
        counter: OpCounter,
        secondary_kind: str = "ddc",
        bc_fanout: int = 16,
        **_: object,
    ) -> "TreeOverlay":
        """Bulk-build: one secondary bulk build per non-zero group."""
        overlay = cls(
            region.shape[0],
            region.ndim,
            counter,
            dtype=region.dtype,
            secondary_kind=secondary_kind,
            bc_fanout=bc_fanout,
        )
        overlay._subtotal = region.sum().item()
        counter.cell_writes += 1
        if region.ndim == 1:
            return overlay
        for axis in range(region.ndim):
            rows = region.sum(axis=axis)
            if np.any(rows):
                overlay._groups[axis] = overlay._build_secondary(rows)
        return overlay

    # -- secondary structure management --------------------------------

    def _new_secondary(self):
        """An empty secondary structure for one (d-1)-dimensional group."""
        cross_dims = self.dims - 1
        if self._secondary_kind == "fenwick":
            from ..methods.fenwick import FenwickCube

            secondary = FenwickCube((self.side,) * cross_dims, dtype=self._dtype)
            secondary.stats = self._counter
            return secondary
        if cross_dims == 1:
            # The paper's key-addressed B^c tree: only populated rows are
            # materialised, so overlays over empty space stay empty.
            return KeyedBcTree(fanout=self._bc_fanout, counter=self._counter)
        from .ddc import DynamicDataCube

        return DynamicDataCube(
            (self.side,) * cross_dims,
            dtype=self._dtype,
            secondary_kind=self._secondary_kind,
            bc_fanout=self._bc_fanout,
            counter=self._counter,
        )

    def _build_secondary(self, rows: np.ndarray):
        """A secondary structure pre-loaded with dense group totals."""
        if self._secondary_kind == "fenwick":
            from ..methods.fenwick import FenwickCube

            secondary = FenwickCube.from_array(rows)
            secondary.stats = self._counter
            return secondary
        if rows.ndim == 1:
            items = [
                (index, value)
                for index, value in enumerate(rows.tolist())
                if value != 0
            ]
            return KeyedBcTree.from_items(
                items, fanout=self._bc_fanout, counter=self._counter
            )
        from .ddc import DynamicDataCube

        return DynamicDataCube.from_array(
            rows,
            secondary_kind=self._secondary_kind,
            bc_fanout=self._bc_fanout,
            counter=self._counter,
        )

    # -- OverlayBox interface -------------------------------------------

    def subtotal(self):
        self._counter.touch(self)
        self._counter.cell_reads += 1
        return self._subtotal

    def row_value(self, group: int, cross: Cross):
        # The 2-D hot case first: a one-dimensional group in a B^c tree.
        tracker = self._counter.tracker
        if tracker is not None:
            tracker.access(self)
        secondary = self._groups[group]
        if type(secondary) is KeyedBcTree:
            return secondary.prefix_sum(cross[0])
        if secondary is None:
            return 0
        if self._secondary_kind == "fenwick":
            value = secondary.prefix_sum(cross)
            return value.item() if hasattr(value, "item") else value
        return secondary._prefix_at(cross)

    def row_value_many(self, group: int, crosses: Sequence[Cross]) -> list:
        """Batch row-sum reads as one shared descent of the secondary."""
        self._counter.touch(self)
        secondary = self._groups[group]
        if secondary is None:
            return [0] * len(crosses)
        if type(secondary) is KeyedBcTree:
            return secondary.prefix_sum_many([cross[0] for cross in crosses])
        values = secondary.prefix_sum_many(list(crosses))
        return [
            value.item() if hasattr(value, "item") else value for value in values
        ]

    def apply_delta(self, offsets: Cross, delta) -> None:
        """One point update per group — O(d * log^(d-1) k) total."""
        tracker = self._counter.tracker
        if tracker is not None:
            tracker.access(self)
        self._subtotal += delta
        self._counter.cell_writes += 1
        groups = self._groups
        for axis in range(len(groups)):
            secondary = groups[axis]
            if secondary is None:
                secondary = groups[axis] = self._new_secondary()
            if type(secondary) is KeyedBcTree:
                # A one-dimensional group only exists in a 2-D box: its
                # cross-position is the other axis's offset.
                secondary.add(offsets[1 - axis], delta)
            elif self._secondary_kind == "fenwick":
                secondary.add(_drop_axis(offsets, axis), delta)
            else:
                secondary._add_at(_drop_axis(offsets, axis), delta)

    def apply_delta_many(self, items: Sequence[tuple[Cross, object]]) -> None:
        """Batch update: one shared subtotal write, one batch per group.

        Each group forwards the whole batch to its secondary's
        ``add_many`` — a single grouped descent for B^c trees and
        recursive sub-cubes alike.
        """
        self._counter.touch(self)
        self._subtotal += sum(delta for _, delta in items)
        self._counter.cell_writes += 1
        for axis in range(len(self._groups)):
            secondary = self._groups[axis]
            if secondary is None:
                secondary = self._groups[axis] = self._new_secondary()
            updates = [(_drop_axis(offsets, axis), delta) for offsets, delta in items]
            if type(secondary) is KeyedBcTree:
                secondary.add_many([(cross[0], delta) for cross, delta in updates])
            else:
                secondary.add_many(updates)

    def memory_cells(self) -> int:
        cells = 1
        for secondary in self._groups:
            if secondary is not None:
                cells += secondary.memory_cells()
        return cells

    def validate(self) -> None:
        """Check box invariants; raise :class:`StructureError` on failure.

        Verifies that every populated group's total equals the cached
        subtotal and deep-checks each secondary structure (key-addressed
        B^c trees, recursive sub-cubes, or Fenwick ablations).
        """
        from ..analysis.audit import audit

        audit(self)


OVERLAY_KINDS = {
    "array": ArrayOverlay,
    "tree": TreeOverlay,
}
