"""The Dynamic Data Cube primary tree (Sections 3 and 4).

The primary tree recursively halves the cube's domain: a node covering a
region of side ``s`` has ``2^d`` children of side ``s/2``, and stores one
overlay box per child.  A prefix-sum query walks a single root-to-leaf
path (Theorem 1), collecting at most ``2^d - 1`` overlay values per
level; a point update walks the same path, pushing the delta into one
overlay box per level.  At the bottom the tree stores raw cells in dense
*leaf blocks* of side ``leaf_side`` — ``leaf_side = 2`` is the paper's
base structure (the leaf level is array ``A`` itself), larger values give
the level-elision optimization of Section 4.4 (``h = log2(leaf_side) - 1``
tree levels deleted, queries finishing with at most ``leaf_side^d`` raw
cell additions).

Nodes, overlay boxes, group secondaries, and leaf blocks are all created
lazily, so empty regions of a sparse or clustered cube consume no storage
(Section 5).

This module implements the full Dynamic Data Cube
(:class:`DynamicDataCube`, overlay groups in secondary structures); the
Basic variant of Section 3 reuses the identical tree with dense
cumulative overlays — see :mod:`repro.core.basic_ddc`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import geometry
from ..counters import OpCounter
from ..exceptions import (
    ConfigurationError,
    InvalidRangeError,
    InvalidShapeError,
    StructureError,
)
from ..methods.base import RangeSumMethod
from .overlay import ArrayOverlay, TreeOverlay

__all__ = ["DynamicDataCube"]

#: Cover-bucket size below which a batch traversal reads overlay row
#: values as individual walks instead of one batched secondary descent —
#: the shared descent's bucket bookkeeping only amortises over larger
#: groups (measured on the batch-query throughput bench at 256x256).
_ROW_MANY_MIN = 16


class _Node:
    """Internal primary-tree node: 2^d lazy children with lazy overlays."""

    __slots__ = ("children", "overlays")

    def __init__(self, fan: int) -> None:
        self.children: list = [None] * fan
        self.overlays: list = [None] * fan


class DynamicDataCube(RangeSumMethod):
    """The paper's Dynamic Data Cube: O(log^d n) queries *and* updates.

    Args:
        shape: logical cube shape; internally embedded in a power-of-two
            hypercube (the paper assumes ``n = 2^i``).
        dtype: stored value dtype.
        leaf_side: side of the dense leaf blocks (power of two, >= 1).
            ``2`` reproduces the paper's base structure; larger values
            apply the Section 4.4 level-elision optimization.
        secondary_kind: ``"ddc"`` (paper: recursive Dynamic Data Cubes,
            B^c trees at one dimension) or ``"fenwick"`` (ablation).
        bc_fanout: fanout of the B^c trees backing one-dimensional groups.
        counter: optional shared :class:`OpCounter` (used when this cube
            is itself a secondary structure of a larger cube).
    """

    name = "ddc"
    #: Below this batch size the per-node bucketing and contribution
    #: cache of the path-sharing traversal cost more than they share.
    #: On uniform batches the traversal never beat the scalar walks up
    #: to 256 queries, so batches up to 256 run as scalar walks; zipf
    #: batches up to 256 are faster as scalar walks too, at several
    #: times the node visits (docs/algorithms.md §8, which has the
    #: measurement behind every class's constant).
    batch_crossover = 257
    _overlay_class = TreeOverlay

    def __init__(
        self,
        shape: Sequence[int],
        dtype=np.int64,
        leaf_side: int = 2,
        secondary_kind: str = "ddc",
        bc_fanout: int = 16,
        counter: OpCounter | None = None,
    ) -> None:
        super().__init__(shape, dtype)
        if not geometry.is_power_of_two(leaf_side):
            raise InvalidShapeError(f"leaf_side must be a power of two, got {leaf_side}")
        if secondary_kind not in ("ddc", "fenwick"):
            raise ConfigurationError(f"unknown secondary_kind {secondary_kind!r}")
        if counter is not None:
            self.stats = counter
        self.leaf_side = leaf_side
        self.secondary_kind = secondary_kind
        self.bc_fanout = bc_fanout
        self._capacity = max(geometry.padded_side(self.shape), leaf_side)
        self._fan = 1 << self.dims
        self._full_mask = self._fan - 1
        self._root = None
        self._total = 0

    def _bind_instruments(self, obs) -> None:
        super()._bind_instruments(obs)
        depth = obs.descent_depth
        self._obs_query_depth = depth.labels(structure=self.name, op="query")
        self._obs_update_depth = depth.labels(structure=self.name, op="update")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_array(cls, array: np.ndarray, **kwargs) -> "DynamicDataCube":
        """Vectorised bulk build: one pass of numpy reductions per node."""
        array = np.asarray(array)
        method = cls(array.shape, dtype=kwargs.pop("dtype", array.dtype), **kwargs)
        if not np.any(array):
            return method
        padded = np.zeros((method._capacity,) * method.dims, dtype=method.dtype)
        padded[tuple(slice(0, n) for n in array.shape)] = array
        method._root = method._build(padded)
        method._total = padded.sum().item()
        return method

    def _build(self, region: np.ndarray):
        """Recursively build the subtree for a non-zero dense ``region``."""
        side = region.shape[0]
        if side <= self.leaf_side:
            block = np.array(region, dtype=self.dtype)
            self.stats.cell_writes += block.size
            return block
        half = side // 2
        node = _Node(self._fan)
        for mask in range(self._fan):
            slices = tuple(
                slice(half, side) if mask >> axis & 1 else slice(0, half)
                for axis in range(self.dims)
            )
            child_region = region[slices]
            if not np.any(child_region):
                continue
            node.overlays[mask] = self._overlay_class.from_dense(
                child_region,
                self.stats,
                secondary_kind=self.secondary_kind,
                bc_fanout=self.bc_fanout,
            )
            node.children[mask] = self._build(child_region)
        return node

    def _new_overlay(self, side: int):
        return self._overlay_class(
            side,
            self.dims,
            self.stats,
            dtype=self.dtype,
            secondary_kind=self.secondary_kind,
            bc_fanout=self.bc_fanout,
        )

    # ------------------------------------------------------------------
    # Point access
    # ------------------------------------------------------------------
    #
    # Every descent carries the target as a list ``r`` of offsets
    # relative to the node being visited.  At a node of side ``2 * half``
    # the covering child's bit ``t`` is set when ``r[t] >= half``, and
    # ``r[t]`` then drops by ``half`` — so after the cover step ``r`` is
    # relative to the covering child, and equally to every overlay box
    # of that node on the axes the box shares with it.  Tallies are kept
    # in locals and added to the shared ``OpCounter`` once per call; the
    # tracker (a simulated buffer pool) still sees every touch, in the
    # same order: node, its overlays in submask order, then the leaf.

    def get(self, cell: Sequence[int] | int):
        """Read ``A[cell]`` by descending to its leaf block — O(log n)."""
        r = list(geometry.normalize_cell(cell, self.shape))
        tracker = self.stats.tracker
        axes = range(self.dims)
        node = self._root
        side = self._capacity
        visits = 0
        while isinstance(node, _Node):
            if tracker is not None:
                tracker.access(node)
            visits += 1
            half = side >> 1
            mask = 0
            for axis in axes:
                if r[axis] >= half:
                    mask |= 1 << axis
                    r[axis] -= half
            node = node.children[mask]
            side = half
        self.stats.node_visits += visits
        if node is None:
            return self._zero()
        if tracker is not None:
            tracker.access(node)
        self.stats.cell_reads += 1
        return self.dtype.type(node[tuple(r)])

    def add(self, cell: Sequence[int] | int, delta) -> None:
        """Point update: one overlay box per level plus one leaf write.

        Follows the paper's Figure 12 logic — the covering overlay box at
        every level absorbs the difference — except the delta is known up
        front, so a single top-down pass suffices.
        """
        cell = geometry.normalize_cell(cell, self.shape)
        delta = self.dtype.type(delta).item()
        if delta == 0:
            return
        depth = self._add_at(cell, delta)
        if self._obs.enabled:
            self._obs_update_depth.observe(depth)

    def _add_at(self, cell: Sequence[int], delta) -> int:
        """Apply a non-zero, already-typed ``delta`` at an in-range cell.

        Returns the number of levels walked.  A parent overlay updates
        its recursive secondary cube through here: it has already
        checked the cell and typed the delta.
        """
        r = list(cell)
        if self._root is None:
            self._root = self._new_root()
        tracker = self.stats.tracker
        axes = range(self.dims)
        node = self._root
        side = self._capacity
        depth = 0
        while isinstance(node, _Node):
            if tracker is not None:
                tracker.access(node)
            depth += 1
            half = side >> 1
            mask = 0
            for axis in axes:
                if r[axis] >= half:
                    mask |= 1 << axis
                    r[axis] -= half
            overlay = node.overlays[mask]
            if overlay is None:
                overlay = node.overlays[mask] = self._new_overlay(half)
            overlay.apply_delta(r, delta)
            child = node.children[mask]
            if child is None:
                child = node.children[mask] = self._new_child(half)
            node = child
            side = half
        if tracker is not None:
            tracker.access(node)
        node[tuple(r)] += delta
        stats = self.stats
        stats.node_visits += depth
        stats.cell_writes += 1
        self._total += delta
        return depth

    def set(self, cell: Sequence[int] | int, value) -> None:
        cell = geometry.normalize_cell(cell, self.shape)
        old = self.get(cell)
        delta = value - old
        if delta != 0:
            self.add(cell, delta)

    def _new_root(self):
        if self._capacity <= self.leaf_side:
            return np.zeros((self._capacity,) * self.dims, dtype=self.dtype)
        return _Node(self._fan)

    def _new_child(self, side: int):
        if side <= self.leaf_side:
            return np.zeros((side,) * self.dims, dtype=self.dtype)
        return _Node(self._fan)

    def _child_anchor(self, anchor: tuple, mask: int, half: int) -> tuple:
        """Absolute anchor of child ``mask`` (audit and iteration only)."""
        return tuple(
            anchor[axis] + (half if mask >> axis & 1 else 0)
            for axis in range(self.dims)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def prefix_sum(self, cell: Sequence[int] | int):
        """``SUM(A[0,...,0] : A[cell])`` — the Figure 10 algorithm.

        Exactly one child is descended per level; every other overlay box
        whose region intersects the target region contributes its
        subtotal (fully inside) or one cumulative row-sum value
        (partially inside).

        With observability wired into this structure, each call opens a
        ``tree.prefix_sum`` span (under ``method.range_sum`` when the
        call comes through it) and feeds the descent-depth histogram;
        disabled, the only cost is one predicate check.
        """
        obs = self._obs
        if not obs.enabled:
            return self._prefix_walk(cell)[0]
        with obs.span("tree.prefix_sum", structure=self.name) as span:
            value, depth = self._prefix_walk(cell)
            span.set(depth=depth)
        self._obs_query_depth.observe(depth)
        return value

    def _prefix_walk(self, cell: Sequence[int] | int):
        """One Figure 10 descent; returns ``(value, levels walked)``."""
        cell = geometry.normalize_cell(cell, self.shape)
        if self._root is None:
            return self._zero(), 0
        acc, depth = self._walk_under(self._root, self._capacity, list(cell))
        return self.dtype.type(acc), depth

    def _prefix_at(self, cell: Sequence[int]):
        """Prefix sum at an in-range cell, as a plain Python number.

        A parent overlay reads its recursive secondary cube through
        here: the cross is in range by construction, so the public entry
        point's normalisation and observability checks would only add
        cost.
        """
        if self._root is None:
            return 0
        acc = self._walk_under(self._root, self._capacity, list(cell))[0]
        return self.dtype.type(acc).item()

    def _walk_under(self, node, side: int, r: list):
        """Scalar Figure 10 descent from an arbitrary subtree position.

        ``r`` is the target's offsets relative to ``node`` and is
        consumed.  Returns ``(sum, levels walked)`` with the sum as a
        plain Python number.  Shared by the scalar entry points (from the
        root) and the batch traversal, which drops to this walk the
        moment a cover bucket narrows to a single query — from there down
        the bucketed bookkeeping (cover dicts, read caches, position
        lists) is pure overhead over the plain descent.

        The proper submasks of the covering mask are exactly the boxes
        the target region intersects without covering the target cell.
        Box ``mask`` is complete on the axes ``cover ^ mask`` (lower half
        while the target sits in the upper half): complete on every
        axis, it contributes its subtotal; otherwise one row-sum value of
        the group on its lowest complete axis, at the cross-position
        ``half - 1`` on the other complete axes and ``r`` elsewhere.
        """
        stats = self.stats
        tracker = stats.tracker
        full = self._full_mask
        axes = range(self.dims)
        acc = 0
        depth = 0
        reads = 0
        while isinstance(node, _Node):
            if tracker is not None:
                tracker.access(node)
            depth += 1
            half = side >> 1
            cover = 0
            for axis in axes:
                if r[axis] >= half:
                    cover |= 1 << axis
                    r[axis] -= half
            if cover:
                overlays = node.overlays
                submask = (cover - 1) & cover
                while True:
                    overlay = overlays[submask]
                    if overlay is not None:
                        complete = cover ^ submask
                        if complete == full:
                            if tracker is not None:
                                tracker.access(overlay)
                            reads += 1
                            acc += overlay._subtotal
                        else:
                            group = (complete & -complete).bit_length() - 1
                            cross = r.copy()
                            del cross[group]
                            if complete & (complete - 1):
                                self._fill_complete(cross, complete, half - 1)
                            acc += overlay.row_value(group, cross)
                    if submask == 0:
                        break
                    submask = (submask - 1) & cover
            node = node.children[cover]
            side = half
            if node is None:
                stats.node_visits += depth
                stats.cell_reads += reads
                return acc, depth
        if tracker is not None:
            tracker.access(node)
        acc += node[tuple(slice(0, offset + 1) for offset in r)].sum().item()
        stats.node_visits += depth
        stats.cell_reads += reads + geometry.range_cell_count((0,) * self.dims, r)
        return acc, depth

    @staticmethod
    def _fill_complete(cross: list, complete: int, top: int) -> None:
        """Set ``top`` on ``cross`` at every complete axis but the lowest.

        ``cross`` is a box-relative cell with the lowest complete axis
        (the row-sum group) already deleted, so every other axis ``a``
        of ``complete`` sits at index ``a - 1``.  Only cubes of three or
        more dimensions have a second complete axis.
        """
        rest = complete & (complete - 1)
        while rest:
            low = rest & -rest
            cross[low.bit_length() - 2] = top
            rest ^= low

    # ------------------------------------------------------------------
    # Batch queries (path-sharing traversal)
    # ------------------------------------------------------------------

    def prefix_sum_many(self, cells: Sequence) -> list:
        """Batch Figure 10 queries with one shared traversal.

        Two queries follow the same root-to-leaf descent exactly when
        their covering masks agree at every level, so the batch is
        bucketed by covering mask at each node and every distinct child
        path is descended once.  Within a node, overlay contributions
        are keyed by ``(box, group, cross)`` — queries in the same
        bucket needing the same subtotal or row-sum value read it once,
        and the distinct row-sum reads of a box are batched into a
        single ``row_value_many`` call (a shared descent of the
        secondary structure).  ``node_visits`` therefore counts each
        visited tree node once per batch: the true logical cost.
        """
        normalized = [geometry.normalize_cell(cell, self.shape) for cell in cells]
        if self._root is None:
            return [self._zero() for _ in normalized]
        if not self._use_batch_path(len(normalized)):
            return [self.prefix_sum(cell) for cell in normalized]  # noqa: REP006 — below the crossover: a tiny batch never amortises the bucketed traversal's bookkeeping
        order: dict[tuple, list[int]] = {}
        for position, cell in enumerate(normalized):
            order.setdefault(cell, []).append(position)
        if not order:
            return []
        distinct = list(order)
        values = self._prefix_many(
            self._root, self._capacity, [list(cell) for cell in distinct]
        )
        results: list = [None] * len(normalized)
        for cell, value in zip(distinct, values):
            typed = self.dtype.type(value)
            for position in order[cell]:
                results[position] = typed
        return results

    def _prefix_many(self, node, side: int, targets: list) -> list:
        """Answer distinct prefix queries under ``node`` (results in order).

        ``targets`` holds one offset list per query, relative to
        ``node``; each is consumed like the scalar walk's ``r``.
        """
        if node is None:
            return [0] * len(targets)
        stats = self.stats
        if not isinstance(node, _Node):
            stats.touch(node)
            out = []
            for r in targets:
                out.append(node[tuple(slice(0, o + 1) for o in r)].sum().item())
                stats.cell_reads += geometry.range_cell_count((0,) * self.dims, r)
            return out
        if len(targets) == 1:
            return [self._walk_under(node, side, targets[0])[0]]
        stats.node_visits += 1
        stats.touch(node)
        half = side >> 1
        axes = range(self.dims)
        by_cover: dict[int, tuple[list[int], list]] = {}
        for position, r in enumerate(targets):
            cover = 0
            for axis in axes:
                if r[axis] >= half:
                    cover |= 1 << axis
                    r[axis] -= half
            entry = by_cover.get(cover)
            if entry is None:
                by_cover[cover] = entry = ([], [])
            entry[0].append(position)
            entry[1].append(r)
        out = [0] * len(targets)
        # Contributions already read at this node, shared across covers:
        # ``(mask, None)`` for a subtotal, ``(mask, group, cross)`` for a
        # row-sum value (``cross`` is box-relative, so keys agree across
        # covers).
        cache: dict = {}
        for cover, (positions, group_targets) in by_cover.items():
            if cover:
                submask = (cover - 1) & cover
                while True:
                    self._batch_box(
                        node.overlays[submask], submask, cover,
                        group_targets, positions, half, cache, out,
                    )
                    if submask == 0:
                        break
                    submask = (submask - 1) & cover
            sub = self._prefix_many(node.children[cover], half, group_targets)
            for position, value in zip(positions, sub):
                out[position] += value
        return out

    def _batch_box(
        self,
        overlay,
        mask: int,
        cover: int,
        group_targets: list,
        positions: list[int],
        half: int,
        cache: dict,
        out: list,
    ) -> None:
        """Add overlay box ``mask``'s contribution for one cover bucket."""
        if overlay is None:
            return
        complete = cover ^ mask
        if complete == self._full_mask:
            key = (mask, None)
            if key not in cache:
                cache[key] = overlay.subtotal()
            value = cache[key]
            for position in positions:
                out[position] += value
            return
        group = (complete & -complete).bit_length() - 1
        top = half - 1
        keys = []
        for r in group_targets:
            cross = r.copy()
            del cross[group]
            if complete & (complete - 1):
                self._fill_complete(cross, complete, top)
            keys.append((mask, group, tuple(cross)))
        if len(group_targets) < _ROW_MANY_MIN:
            # Small buckets: read each distinct row value as a plain
            # walk the moment it is first needed — the cache still
            # dedupes, and the batched secondary descent's bucket
            # bookkeeping costs more than a handful of walks.
            for position, key in zip(positions, keys):
                value = cache.get(key)
                if value is None:
                    value = cache[key] = overlay.row_value(group, key[2])
                out[position] += value
            return
        missing: list[tuple] = []
        seen: set = set()
        for key in keys:
            if key not in cache and key not in seen:
                seen.add(key)
                missing.append(key)
        if missing:
            values = overlay.row_value_many(group, [key[2] for key in missing])
            for key, value in zip(missing, values):
                cache[key] = value
        for position, key in zip(positions, keys):
            out[position] += cache[key]

    # ------------------------------------------------------------------
    # Batch updates (grouped descent)
    # ------------------------------------------------------------------

    def add_many(self, updates: Sequence[tuple]) -> None:
        """Batch point updates with one grouped descent.

        Deltas are combined per cell and zeros dropped (the base-class
        contract), then routed down the tree together: each visited
        node forwards every update covered by the same child through a
        single ``apply_delta_many`` call on that child's overlay box —
        one shared subtotal write and one batched secondary update per
        group — before descending once into the child.
        """
        combined = []
        for cell, delta in self._combined_updates(updates):
            delta = self.dtype.type(delta).item()
            if delta != 0:
                combined.append((list(cell), delta))
        if not combined:
            return
        if self._root is None:
            self._root = self._new_root()
        self._add_many_node(self._root, self._capacity, combined)
        self._total += sum(delta for _, delta in combined)

    def _add_many_node(self, node, side: int, items: list) -> None:
        """Apply ``(offsets, delta)`` items to the subtree rooted at ``node``.

        Offsets are relative to ``node`` and consumed as in the scalar
        descent.
        """
        stats = self.stats
        if not isinstance(node, _Node):
            stats.touch(node)
            for r, delta in items:
                node[tuple(r)] += delta
            stats.cell_writes += len(items)
            return
        stats.node_visits += 1
        stats.touch(node)
        half = side >> 1
        axes = range(self.dims)
        by_mask: dict[int, list] = {}
        for item in items:
            r = item[0]
            mask = 0
            for axis in axes:
                if r[axis] >= half:
                    mask |= 1 << axis
                    r[axis] -= half
            by_mask.setdefault(mask, []).append(item)
        for mask, group_items in by_mask.items():
            overlay = node.overlays[mask]
            if overlay is None:
                overlay = node.overlays[mask] = self._new_overlay(half)
            overlay.apply_delta_many(group_items)
            child = node.children[mask]
            if child is None:
                child = node.children[mask] = self._new_child(half)
            self._add_many_node(child, half, group_items)

    # ------------------------------------------------------------------
    # Dynamic growth (Section 5)
    # ------------------------------------------------------------------

    def expand(self, corner_mask: int) -> None:
        """Double the domain; the existing cube becomes one root child.

        ``corner_mask`` selects which corner of the enlarged domain the
        existing data occupies: bit ``t`` set means the old cube becomes
        the *upper* half of dimension ``t`` (i.e. the cube grew toward
        lower coordinates in that dimension).  The overlay box for the
        old cube at the new root level is rebuilt from the populated leaf
        blocks only, so expansion of a sparse cube costs time and space
        proportional to the data actually present.
        """
        if not 0 <= corner_mask < self._fan:
            raise InvalidRangeError(f"corner_mask {corner_mask} out of range for {self.dims} dims")
        old_capacity = self._capacity
        self._capacity = old_capacity * 2
        self.shape = (self._capacity,) * self.dims
        if self._root is None:
            return
        node = _Node(self._fan)
        node.children[corner_mask] = self._root
        node.overlays[corner_mask] = self._overlay_from_contents(old_capacity)
        self._root = node

    def _overlay_from_contents(self, side: int):
        """Build an overlay box summarising the entire current tree."""
        overlay = self._new_overlay(side)
        overlay._subtotal = self._total
        if self.dims == 1:
            return overlay
        axis_totals = [self._axis_sums(axis, side) for axis in range(self.dims)]
        if isinstance(overlay, ArrayOverlay):
            for axis, rows in enumerate(axis_totals):
                cumulative = rows.copy()
                for cross_axis in range(cumulative.ndim):
                    np.cumsum(cumulative, axis=cross_axis, out=cumulative)
                overlay._groups[axis] = cumulative
            return overlay
        for axis, rows in enumerate(axis_totals):
            if np.any(rows):
                overlay._groups[axis] = overlay._build_secondary(rows)
        return overlay

    def _axis_sums(self, axis: int, side: int) -> np.ndarray:
        """Dense per-cross-position totals along ``axis`` over the whole tree."""
        out = np.zeros((side,) * (self.dims - 1), dtype=self.dtype)
        self._accumulate_axis_sums(self._root, (0,) * self.dims, side, axis, out)
        return out

    def _accumulate_axis_sums(
        self, node, anchor: tuple, side: int, axis: int, out: np.ndarray
    ) -> None:
        if node is None:
            return
        if not isinstance(node, _Node):
            cross_anchor = anchor[:axis] + anchor[axis + 1 :]
            region = tuple(slice(a, a + side) for a in cross_anchor)
            out[region] += node.sum(axis=axis)
            return
        half = side // 2
        for mask, child in enumerate(node.children):
            if child is not None:
                child_anchor = self._child_anchor(anchor, mask, half)
                self._accumulate_axis_sums(child, child_anchor, half, axis, out)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def total(self):
        return self.dtype.type(self._total)

    def memory_cells(self) -> int:
        return self._memory_cells(self._root)

    def _memory_cells(self, node) -> int:
        if node is None:
            return 0
        if not isinstance(node, _Node):
            return node.size
        cells = 0
        for child, overlay in zip(node.children, node.overlays):
            if overlay is not None:
                cells += overlay.memory_cells()
            cells += self._memory_cells(child)
        return cells

    def storage_breakdown(self) -> dict:
        """Where the cells live: leaf blocks vs subtotals vs group trees.

        Returns a dict with ``blocks`` (raw leaf cells), ``subtotals``
        (one per allocated overlay), ``groups`` (cells inside secondary
        structures), and ``total``.  The group share is the Table 2
        overhead in its tree-backed form.
        """
        breakdown = {"blocks": 0, "subtotals": 0, "groups": 0}
        self._breakdown(self._root, breakdown)
        breakdown["total"] = sum(breakdown.values())
        return breakdown

    def _breakdown(self, node, breakdown: dict) -> None:
        if node is None:
            return
        if not isinstance(node, _Node):
            breakdown["blocks"] += node.size
            return
        for child, overlay in zip(node.children, node.overlays):
            if overlay is not None:
                cells = overlay.memory_cells()
                breakdown["subtotals"] += 1
                breakdown["groups"] += cells - 1
            self._breakdown(child, breakdown)

    def height(self) -> int:
        """Internal levels above the leaf blocks."""
        levels = 0
        side = self._capacity
        while side > self.leaf_side:
            levels += 1
            side //= 2
        return levels

    def iter_blocks(self):
        """Yield ``(anchor, block)`` for every populated leaf block.

        Blocks are numpy views of the live storage — treat them as
        read-only.  The traversal order is the tree's child-mask order.
        """

        def walk(node, anchor, side):
            if node is None:
                return
            if not isinstance(node, _Node):
                yield anchor, node
                return
            half = side // 2
            for mask, child in enumerate(node.children):
                if child is not None:
                    yield from walk(child, self._child_anchor(anchor, mask, half), half)

        yield from walk(self._root, (0,) * self.dims, self._capacity)

    def iter_nonzero(self):
        """Yield ``(cell, value)`` for every non-zero cell, sparsely.

        Costs time proportional to the populated blocks, never the
        domain — the right way to export a clustered cube's contents.
        Cells in the power-of-two padding are excluded.
        """
        for anchor, block in self.iter_blocks():
            for offsets in np.argwhere(block != 0):
                offsets = tuple(int(o) for o in offsets)
                cell = tuple(a + o for a, o in zip(anchor, offsets))
                if all(c < s for c, s in zip(cell, self.shape)):
                    yield cell, self.dtype.type(block[offsets])

    def to_dense(self) -> np.ndarray:
        padded = np.zeros((self._capacity,) * self.dims, dtype=self.dtype)
        self._fill_dense(self._root, (0,) * self.dims, self._capacity, padded)
        return padded[tuple(slice(0, n) for n in self.shape)].copy()

    def _fill_dense(self, node, anchor: tuple, side: int, out: np.ndarray) -> None:
        if node is None:
            return
        if not isinstance(node, _Node):
            region = tuple(slice(a, a + side) for a in anchor)
            out[region] = node
            return
        half = side // 2
        for mask, child in enumerate(node.children):
            if child is not None:
                self._fill_dense(child, self._child_anchor(anchor, mask, half), half, out)

    def validate(self) -> None:
        """Check overlay subtotals and groups against the raw leaf data.

        Intended for tests on small cubes — it materialises the dense
        contents.  Raises :class:`StructureError` on any mismatch.
        """
        padded = np.zeros((self._capacity,) * self.dims, dtype=self.dtype)
        self._fill_dense(self._root, (0,) * self.dims, self._capacity, padded)
        if padded.sum().item() != self._total:
            raise StructureError(
                f"total cache {self._total} != actual {padded.sum().item()}"
            )
        self._validate_node(self._root, (0,) * self.dims, self._capacity, padded)

    def _validate_node(
        self, node, anchor: tuple, side: int, padded: np.ndarray
    ) -> None:
        if node is None or not isinstance(node, _Node):
            return
        half = side // 2
        for mask in range(self._fan):
            child_anchor = self._child_anchor(anchor, mask, half)
            region = tuple(slice(a, a + half) for a in child_anchor)
            dense = padded[region]
            overlay = node.overlays[mask]
            if overlay is None:
                if np.any(dense):
                    raise StructureError(f"missing overlay for non-zero box {mask}")
                continue
            if overlay.subtotal() != dense.sum().item():
                raise StructureError(
                    f"overlay subtotal mismatch at anchor {child_anchor}"
                )
            if self.dims > 1:
                self._validate_groups(overlay, dense, child_anchor)
            self._validate_node(node.children[mask], child_anchor, half, padded)

    def _validate_groups(self, overlay, dense: np.ndarray, child_anchor: tuple) -> None:
        half = dense.shape[0]
        for axis in range(self.dims):
            expected = dense.sum(axis=axis)
            for cross_axis in range(expected.ndim):
                expected = np.cumsum(expected, axis=cross_axis)
            top = (half - 1,) * (self.dims - 1)
            for cross in geometry.iter_cells((0,) * (self.dims - 1), top):
                actual = overlay.row_value(axis, cross)
                if actual != expected[cross].item():
                    raise StructureError(
                        f"group {axis} mismatch at anchor {child_anchor}, cross {cross}: "
                        f"{actual} != {expected[cross].item()}"
                    )
