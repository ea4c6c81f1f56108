"""Key-addressed B^c tree: the sparse form of the cumulative B-tree.

Section 4.1 of the paper describes B^c tree leaves as carrying explicit
keys — "the key for each leaf ... is equal to the index of the cell in
the one-dimensional array of row sum values".  Taken literally, a key-
addressed tree only needs leaves for rows that actually hold data, which
is exactly what Section 5's sparse/clustered cubes require: an overlay
group over a mostly-empty region must not materialise every empty row.

:class:`KeyedBcTree` is that structure — a B-tree mapping integer keys
to row values, with per-child subtree sums (STS) in the interior nodes:

* ``prefix_sum(key)`` — sum of every stored row with key <= ``key``,
  O(log m) for m stored rows;
* ``add(key, delta)`` — upsert, O(log m);
* ``from_items`` — O(m) bulk build from sorted (key, value) pairs.

The rank-addressed sibling :class:`~repro.core.bc_tree.BcTree` remains
the right tool when rows must be inserted *between* existing ones
(dynamic growth re-indexing); this keyed form is the right tool inside
overlay boxes, where row indexes are fixed but mostly empty.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Sequence

from ..counters import OpCounter
from ..exceptions import ConfigurationError, StructureError

__all__ = ["DEFAULT_FANOUT", "KeyedBcTree"]

DEFAULT_FANOUT = 16
_MIN_FANOUT = 3


class _Leaf:
    """Sorted run of (key, value) rows."""

    __slots__ = ("keys", "values")

    def __init__(self, keys: list[int], values: list) -> None:
        self.keys = keys
        self.values = values


class _Internal:
    """Children plus, per child, the subtree's maximum key and sum (STS)."""

    __slots__ = ("children", "max_keys", "sums")

    def __init__(self, children: list, max_keys: list[int], sums: list) -> None:
        self.children = children
        self.max_keys = max_keys
        self.sums = sums


class KeyedBcTree:
    """Sparse cumulative B-tree keyed by row index.

    Args:
        fanout: maximum entries per node.
        counter: optional shared :class:`OpCounter` (the Dynamic Data
            Cube aggregates secondary-structure costs this way).
    """

    def __init__(self, fanout: int = DEFAULT_FANOUT, counter: OpCounter | None = None):
        if fanout < _MIN_FANOUT:
            raise ConfigurationError(f"fanout must be >= {_MIN_FANOUT}, got {fanout}")
        self.fanout = fanout
        self.stats = counter if counter is not None else OpCounter()
        self._root: _Leaf | _Internal = _Leaf([], [])
        self._size = 0
        self._total = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_items(
        cls,
        items: Sequence[tuple[int, object]],
        fanout: int = DEFAULT_FANOUT,
        counter: OpCounter | None = None,
    ) -> "KeyedBcTree":
        """Bulk-build from (key, value) pairs sorted by strictly rising key."""
        tree = cls(fanout=fanout, counter=counter)
        items = list(items)
        if not items:
            return tree
        keys = [key for key, _ in items]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ConfigurationError("items must be sorted by strictly increasing key")
        tree._size = len(items)
        tree._total = sum(value for _, value in items)

        level: list = []
        summaries: list[tuple[int, object]] = []  # (max_key, sum) per node
        for chunk in _chunks(items, fanout):
            leaf = _Leaf([key for key, _ in chunk], [value for _, value in chunk])
            level.append(leaf)
            summaries.append((leaf.keys[-1], sum(leaf.values)))
        while len(level) > 1:
            next_level: list = []
            next_summaries: list[tuple[int, object]] = []
            for group in _chunks(list(range(len(level))), fanout):
                children = [level[i] for i in group]
                max_keys = [summaries[i][0] for i in group]
                sums = [summaries[i][1] for i in group]
                next_level.append(_Internal(children, max_keys, sums))
                next_summaries.append((max_keys[-1], sum(sums)))
            level = next_level
            summaries = next_summaries
        tree._root = level[0]
        return tree

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of *stored* (populated) rows."""
        return self._size

    def total(self):
        """Sum of every stored row (O(1))."""
        return self._total

    def prefix_sum(self, key: int):
        """Sum of all rows with key <= ``key`` (the cumulative row sum).

        Each internal node bisects its max keys for the first child
        that can hold a key above ``key``; every STS before it is read.
        Sums are folded with ``+=`` in key order (never ``sum()``, whose
        float form is compensated and would round differently).
        """
        stats = self.stats
        tracker = stats.tracker
        node = self._root
        acc = 0
        visits = 1
        reads = 0
        while type(node) is _Internal:
            if tracker is not None:
                tracker.access(node)
            max_keys = node.max_keys
            index = bisect_right(max_keys, key)
            for value in node.sums[:index]:
                acc += value
            reads += index
            if index == len(max_keys):
                stats.node_visits += visits
                stats.cell_reads += reads
                return acc
            node = node.children[index]
            visits += 1
        if tracker is not None:
            tracker.access(node)
        stop = bisect_right(node.keys, key)
        for value in node.values[:stop]:
            acc += value
        stats.node_visits += visits
        stats.cell_reads += reads + stop
        return acc

    def prefix_sum_many(self, keys: Sequence[int]) -> list:
        """Batch cumulative sums via one shared root-to-leaf descent.

        Duplicate keys are answered once; the distinct keys are sorted
        and routed down the tree together so every node on any query's
        path is visited once for the whole batch, and at each node the
        preceding STSs are read once (the rightmost query's descent
        covers every STS the others need).
        """
        results: list = [None] * len(keys)
        order: dict[int, list[int]] = {}
        for position, key in enumerate(keys):
            order.setdefault(key, []).append(position)
        if not order:
            return []
        if len(order) == 1:
            value = self.prefix_sum(next(iter(order)))
            return [value] * len(keys)
        distinct = sorted(order)
        values = self._prefix_many(self._root, distinct)
        for key, value in zip(distinct, values):
            for position in order[key]:
                results[position] = value
        return results

    def _prefix_many(self, node, keys: list[int]) -> list:
        """Answer sorted distinct ``keys`` under ``node`` (results in order)."""
        self.stats.node_visits += 1
        self.stats.touch(node)
        if isinstance(node, _Leaf):
            stops = [bisect_right(node.keys, key) for key in keys]
            limit = stops[-1]
            self.stats.cell_reads += limit
            prefix = [0]
            acc = 0
            for value in node.values[:limit]:
                acc += value
                prefix.append(acc)
            return [prefix[stop] for stop in stops]
        # Sorted keys route monotonically: sweep children left to right,
        # folding in every passed STS; a key larger than all max keys
        # resolves here (its answer is the node's whole subtree sum).
        buckets: list[tuple[int | None, object, list[int]]] = []
        child_index = 0
        base = 0
        sts_reads = 0
        current: tuple[int | None, object, list[int]] | None = None
        for key in keys:
            while child_index < len(node.max_keys) and node.max_keys[child_index] <= key:
                base += node.sums[child_index]
                child_index += 1
            if child_index < len(node.children):
                target: int | None = child_index
                sts_reads = max(sts_reads, child_index)
            else:
                target = None
                sts_reads = len(node.sums)
            if current is None or current[0] != target:
                current = (target, base, [])
                buckets.append(current)
            current[2].append(key)
        self.stats.cell_reads += sts_reads
        results: list = []
        for target, bucket_base, local_keys in buckets:
            if target is None:
                results.extend(bucket_base for _ in local_keys)
            else:
                sub = self._prefix_many(node.children[target], local_keys)
                results.extend(bucket_base + value for value in sub)
        return results

    def get(self, key: int):
        """Value of the row at ``key`` (0 when the row is unpopulated)."""
        node = self._root
        visits = 1
        while type(node) is _Internal:
            self.stats.touch(node)
            index = bisect_left(node.max_keys, key)
            if index == len(node.max_keys):
                self.stats.node_visits += visits
                return 0
            node = node.children[index]
            visits += 1
        self.stats.node_visits += visits
        self.stats.touch(node)
        position = bisect_left(node.keys, key)
        if position < len(node.keys) and node.keys[position] == key:
            self.stats.cell_reads += 1
            return node.values[position]
        return 0

    def items(self) -> Iterator[tuple[int, object]]:
        """Every stored (key, value) pair in key order."""
        yield from self._iter(self._root)

    def _iter(self, node) -> Iterator[tuple[int, object]]:
        if isinstance(node, _Leaf):
            yield from zip(node.keys, node.values)
        else:
            for child in node.children:
                yield from self._iter(child)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add(self, key: int, delta) -> None:
        """Add ``delta`` to the row at ``key``, creating it if absent.

        One descent: each internal node bisects its max keys for the
        first child whose max key fits (clamped to the last child) and
        updates that child's STS on the way down.  A leaf that overflows
        splits, and the split climbs the recorded path.
        """
        if delta == 0:
            return
        stats = self.stats
        tracker = stats.tracker
        path = []
        node = self._root
        while type(node) is _Internal:
            if tracker is not None:
                tracker.access(node)
            max_keys = node.max_keys
            index = bisect_left(max_keys, key)
            if index == len(max_keys):
                index -= 1
                max_keys[index] = key
            node.sums[index] += delta
            path.append((node, index))
            node = node.children[index]
        if tracker is not None:
            tracker.access(node)
        keys = node.keys
        position = bisect_left(keys, key)
        if position < len(keys) and keys[position] == key:
            node.values[position] += delta
        else:
            keys.insert(position, key)
            node.values.insert(position, delta)
            self._size += 1
        stats.node_visits += len(path) + 1
        stats.cell_writes += len(path) + 1
        self._total += delta
        if len(keys) > self.fanout:
            self._split_up(node, path)

    def _split_up(self, node, path: list) -> None:
        """Split the overfull ``node`` and carry the split up ``path``.

        ``path`` holds ``(parent, child index)`` from the root down to
        ``node``'s parent; the root grows a level when it splits too.
        """
        while True:
            if type(node) is _Internal:
                middle = len(node.children) // 2
                right = _Internal(
                    node.children[middle:], node.max_keys[middle:], node.sums[middle:]
                )
                node.children = node.children[:middle]
                node.max_keys = node.max_keys[:middle]
                node.sums = node.sums[:middle]
                left_summary = (node.max_keys[-1], sum(node.sums))
                right_summary = (right.max_keys[-1], sum(right.sums))
            else:
                middle = len(node.keys) // 2
                right = _Leaf(node.keys[middle:], node.values[middle:])
                node.keys = node.keys[:middle]
                node.values = node.values[:middle]
                left_summary = (node.keys[-1], sum(node.values))
                right_summary = (right.keys[-1], sum(right.values))
            if not path:
                self._root = _Internal(
                    [node, right],
                    [left_summary[0], right_summary[0]],
                    [left_summary[1], right_summary[1]],
                )
                return
            parent, index = path.pop()
            parent.max_keys[index], parent.sums[index] = left_summary
            parent.children.insert(index + 1, right)
            parent.max_keys.insert(index + 1, right_summary[0])
            parent.sums.insert(index + 1, right_summary[1])
            if len(parent.children) <= self.fanout:
                return
            node = parent

    def set(self, key: int, value) -> None:
        """Make the row at ``key`` hold exactly ``value``."""
        self.add(key, value - self.get(key))

    def add_many(self, items: Sequence[tuple[int, object]]) -> None:
        """Bulk upsert: one shared descent for the whole batch.

        Deltas on the same key are combined and zeros dropped; the
        survivors are routed down together, each visited node updating
        one STS per *touched child*.  Unlike the rank tree, an upsert
        can create rows, so a node may burst into several pieces at
        once; ``_add_many`` returns the multi-way split and the root
        regrows as many levels as the batch demands.
        """
        combined: dict[int, object] = {}
        for key, delta in items:
            combined[key] = combined.get(key, 0) + delta
        pending = sorted((key, delta) for key, delta in combined.items() if delta != 0)
        if not pending:
            return
        pieces = self._add_many(self._root, pending)
        while len(pieces) > 1:
            grown: list[tuple[object, int, object]] = []
            for group in _chunks(pieces, self.fanout):
                children = [child for child, _, _ in group]
                max_keys = [max_key for _, max_key, _ in group]
                sums = [piece_sum for _, _, piece_sum in group]
                grown.append(
                    (_Internal(children, max_keys, sums), max_keys[-1], sum(sums))
                )
            pieces = grown
        self._root = pieces[0][0]
        self._total += sum(delta for _, delta in pending)

    def _add_many(self, node, items: list[tuple[int, object]]) -> list:
        """Upsert sorted distinct ``items`` under ``node``.

        Returns the node's replacement as a list of
        ``(node, max_key, subtree_sum)`` pieces — one piece when the node
        absorbed the batch in place, several after a multi-way split.
        All pieces satisfy the B-tree fill bounds (via :func:`_chunks`).
        """
        self.stats.node_visits += 1
        self.stats.touch(node)
        if isinstance(node, _Leaf):
            for key, delta in items:
                position = bisect_left(node.keys, key)
                if position < len(node.keys) and node.keys[position] == key:
                    node.values[position] += delta
                else:
                    node.keys.insert(position, key)
                    node.values.insert(position, delta)
                    self._size += 1
            self.stats.cell_writes += len(items)
            if len(node.keys) <= self.fanout:
                return [(node, node.keys[-1], sum(node.values))]
            pairs = list(zip(node.keys, node.values))
            chunks = _chunks(pairs, self.fanout)
            node.keys = [key for key, _ in chunks[0]]
            node.values = [value for _, value in chunks[0]]
            pieces: list = [(node, node.keys[-1], sum(node.values))]
            for chunk in chunks[1:]:
                leaf = _Leaf([key for key, _ in chunk], [value for _, value in chunk])
                pieces.append((leaf, leaf.keys[-1], sum(leaf.values)))
            return pieces

        # Route the sorted batch: first child whose max key fits, the
        # last child collecting everything beyond the largest max key.
        buckets: list[tuple[int, list[tuple[int, object]]]] = []
        child_index = 0
        current: tuple[int, list[tuple[int, object]]] | None = None
        for key, delta in items:
            while (
                child_index < len(node.max_keys) - 1
                and key > node.max_keys[child_index]
            ):
                child_index += 1
            if current is None or current[0] != child_index:
                current = (child_index, [])
                buckets.append(current)
            current[1].append((key, delta))

        new_children: list = []
        new_max_keys: list[int] = []
        new_sums: list = []
        position = 0
        for child_index, local_items in buckets:
            while position < child_index:
                new_children.append(node.children[position])
                new_max_keys.append(node.max_keys[position])
                new_sums.append(node.sums[position])
                position += 1
            for piece, piece_max, piece_sum in self._add_many(
                node.children[child_index], local_items
            ):
                new_children.append(piece)
                new_max_keys.append(piece_max)
                new_sums.append(piece_sum)
            self.stats.cell_writes += 1
            position = child_index + 1
        while position < len(node.children):
            new_children.append(node.children[position])
            new_max_keys.append(node.max_keys[position])
            new_sums.append(node.sums[position])
            position += 1

        if len(new_children) <= self.fanout:
            node.children = new_children
            node.max_keys = new_max_keys
            node.sums = new_sums
            return [(node, new_max_keys[-1], sum(new_sums))]
        entries = list(zip(new_children, new_max_keys, new_sums))
        pieces = []
        for index, chunk in enumerate(_chunks(entries, self.fanout)):
            children = [child for child, _, _ in chunk]
            max_keys = [max_key for _, max_key, _ in chunk]
            sums = [chunk_sum for _, _, chunk_sum in chunk]
            if index == 0:
                node.children = children
                node.max_keys = max_keys
                node.sums = sums
                piece = node
            else:
                piece = _Internal(children, max_keys, sums)
            pieces.append((piece, max_keys[-1], sum(sums)))
        return pieces

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def memory_cells(self) -> int:
        """Stored values plus interior bookkeeping entries."""
        return self._memory(self._root)

    def _memory(self, node) -> int:
        if isinstance(node, _Leaf):
            return len(node.values)
        cells = len(node.sums) + len(node.max_keys)
        return cells + sum(self._memory(child) for child in node.children)

    def height(self) -> int:
        """Number of levels (a lone leaf has height 1)."""
        height = 1
        node = self._root
        while isinstance(node, _Internal):
            height += 1
            node = node.children[0]
        return height

    def validate(self) -> None:
        """Check all structural invariants; raise :class:`StructureError`."""
        size, total, _, _ = self._validate(self._root, is_root=True)
        if size != self._size:
            raise StructureError(f"size cache {self._size} != actual {size}")
        if total != self._total:
            raise StructureError(f"total cache {self._total} != actual {total}")
        keys = [key for key, _ in self.items()]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise StructureError("keys not strictly increasing")

    def _validate(self, node, is_root: bool):
        minimum = (self.fanout + 1) // 2
        if isinstance(node, _Leaf):
            if not is_root and len(node.keys) < minimum:
                raise StructureError("leaf underfull")
            if len(node.keys) > self.fanout:
                raise StructureError("leaf overfull")
            max_key = node.keys[-1] if node.keys else None
            return len(node.keys), sum(node.values), 1, max_key

        if not is_root and len(node.children) < minimum:
            raise StructureError("internal node underfull")
        if is_root and len(node.children) < 2:
            raise StructureError("internal root must have >= 2 children")
        if len(node.children) > self.fanout:
            raise StructureError("internal node overfull")
        total_size = 0
        total_sum = 0
        depths = set()
        for child, cached_max, cached_sum in zip(
            node.children, node.max_keys, node.sums
        ):
            size, child_sum, depth, child_max = self._validate(child, is_root=False)
            if child_sum != cached_sum:
                raise StructureError(f"STS cache {cached_sum} != actual {child_sum}")
            if child_max != cached_max:
                raise StructureError(
                    f"max-key cache {cached_max} != actual {child_max}"
                )
            total_size += size
            total_sum += child_sum
            depths.add(depth)
        if len(depths) != 1:
            raise StructureError("leaves at differing depths")
        return total_size, total_sum, depths.pop() + 1, node.max_keys[-1]


def _chunks(items: list, fanout: int) -> list[list]:
    """Chunks of size <= fanout and >= ceil(fanout / 2) (except a lone root)."""
    total = len(items)
    if total <= fanout:
        return [items]
    minimum = (fanout + 1) // 2
    chunks = [items[start : start + fanout] for start in range(0, total, fanout)]
    if len(chunks[-1]) < minimum:
        deficit = minimum - len(chunks[-1])
        chunks[-1] = chunks[-2][-deficit:] + chunks[-1]
        chunks[-2] = chunks[-2][:-deficit]
    return chunks
