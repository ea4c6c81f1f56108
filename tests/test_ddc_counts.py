"""Exact operation-count pins for the Dynamic Data Cube kernels.

The paper's cost unit is the logical cell operation (``OpCounter``), and
it is the one metric that is deterministic in CI.  Every DDC descent —
scalar ``prefix_sum`` / ``get`` / ``add``, the path-sharing
``prefix_sum_many`` traversal and the grouped ``add_many`` descent — is
driven here through one seeded mix, and the resulting ``cell_reads``,
``cell_writes`` and ``node_visits`` are pinned to exact figures beside
an integer checksum of every answer.  A kernel rewrite that is meant to
be a pure speedup must leave every number in this module unchanged; a
change that moves one is a change to the paper's cost model and has to
say so.

One run attaches a simulated buffer pool, which pins the *order* of the
structure touches as well: an LRU pool's hit and miss counts move the
moment a descent reports its nodes, overlays or leaf blocks in a
different sequence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ddc import _Node
from repro.methods import method_class
from repro.storage.buffer import BufferPool, attach_pool
from repro.workloads import clustered, query_stream

_CHECKSUM_MOD = (1 << 61) - 1


def _run_mix(method, mirror: np.ndarray, rng: np.random.Generator, steps: int) -> int:
    """Drive a seeded op mix through ``method``; returns an answer checksum.

    Every answer is checked exactly against the dense ``mirror``, which
    receives the same updates.  Batch calls pin ``batch_crossover = 1``
    so the path-sharing traversal runs for batches the class constant
    sends down scalar walks.
    """
    shape = method.shape
    method.batch_crossover = 1

    def cell():
        return tuple(int(rng.integers(0, size)) for size in shape)

    def bounds():
        low = cell()
        high = tuple(int(rng.integers(lo, size)) for lo, size in zip(low, shape))
        return low, high

    def box(low, high):
        return int(mirror[tuple(slice(lo, hi + 1) for lo, hi in zip(low, high))].sum())

    answers: list[tuple[int, int]] = []
    for _ in range(steps):
        op = int(rng.integers(0, 6))
        if op == 0:
            low, high = bounds()
            answers.append((int(method.range_sum(low, high)), box(low, high)))
        elif op == 1:
            target, delta = cell(), int(rng.integers(-9, 10))
            method.add(target, delta)
            mirror[target] += delta
        elif op == 2:
            target = cell()
            answers.append((int(method.get(target)), int(mirror[target])))
        elif op == 3:
            count = int(rng.integers(1, 12))
            updates = [(cell(), int(rng.integers(-9, 10))) for _ in range(count)]
            method.add_many(updates)
            for target, delta in updates:
                mirror[target] += delta
        elif op == 4:
            count = int(rng.integers(1, 24))
            cells = [cell() for _ in range(count)]
            values = method.prefix_sum_many(cells)
            for target, value in zip(cells, values):
                answers.append((int(value), box((0,) * len(shape), target)))
        else:
            count = int(rng.integers(1, 12))
            ranges = [bounds() for _ in range(count)]
            values = method.range_sum_many(ranges)
            for (low, high), value in zip(ranges, values):
                answers.append((int(value), box(low, high)))
    checksum = 0
    for position, (value, expected) in enumerate(answers):
        assert value == expected, f"answer {position}: {value} != {expected}"
        checksum = (checksum * 1_000_003 + value + position) % _CHECKSUM_MOD
    return checksum


def _build(name: str, shape, seed: int, **kwargs):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 50, size=shape).astype(np.int64)
    # Zero out a corner so the run also meets lazily absent subtrees.
    data[tuple(slice(0, size // 4) for size in shape)] = 0
    method = method_class(name).from_array(data, **kwargs)
    method.stats.reset()
    return method, data.copy()


# (name, shape, kwargs, steps) -> (cell_reads, cell_writes, node_visits, checksum)
CASES = {
    "ddc-64x64-leaf2": (
        ("ddc", (64, 64), {"leaf_side": 2}, 160),
        (25988, 3114, 10650, 1727052606121887142),
    ),
    "ddc-64x64-leaf4": (
        ("ddc", (64, 64), {"leaf_side": 4}, 160),
        (28428, 2559, 8219, 1727052606121887142),
    ),
    "ddc-16x16x16": (
        ("ddc", (16, 16, 16), {}, 80),
        (30993, 2027, 14192, 2148306880640645119),
    ),
    "ddc-64x64-fenwick": (
        ("ddc", (64, 64), {"secondary_kind": "fenwick"}, 160),
        (11338, 5697, 3378, 1727052606121887142),
    ),
    "basic-ddc-64x64": (
        ("basic-ddc", (64, 64), {}, 160),
        (7977, 11522, 3378, 1727052606121887142),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_op_counts_pinned(case):
    (name, shape, kwargs, steps), expected = CASES[case]
    method, mirror = _build(name, shape, seed=31, **kwargs)
    checksum = _run_mix(method, mirror, np.random.default_rng(32), steps)
    stats = method.stats
    assert (
        stats.cell_reads,
        stats.cell_writes,
        stats.node_visits,
        checksum,
    ) == expected
    method.validate()


def test_buffer_pool_touch_sequence_pinned():
    """An LRU pool smaller than the touched set pins the touch order."""
    method, mirror = _build("ddc", (64, 64), seed=33)
    pool = attach_pool(method, BufferPool(capacity=48))
    checksum = _run_mix(method, mirror, np.random.default_rng(34), 120)
    assert (
        pool.stats.accesses,
        pool.stats.hits,
        pool.stats.misses,
        pool.stats.evictions,
        checksum,
    ) == (12635, 2798, 9837, 9789, 1898236109150912622)


def test_default_dispatch_of_a_zipf_batch_pinned():
    """A 256-query zipf batch on a 256x256 DDC, dispatched by the class
    constant alone, runs as scalar walks: 1 361 node visits (against 58
    on the path-sharing traversal, docs/algorithms.md §8) in every
    process, because no runtime probe chooses the path."""
    data = clustered((256, 256), clusters=4, points_per_cluster=100, seed=20)
    method = method_class("ddc").from_array(data)
    cells = query_stream((256, 256), 256, locality="zipf", seed=21)
    method.stats.reset()
    values = method.prefix_sum_many(cells)
    assert method.last_batch_path == "scalar"
    assert (method.stats.node_visits, method.stats.cell_reads) == (1361, 2446)
    assert sum(int(value) for value in values) == 2122386


# ----------------------------------------------------------------------
# Growth is lazy allocation, not a leak
# ----------------------------------------------------------------------


def _allocation(method) -> dict:
    """Count the primary tree's nodes, overlays, leaf blocks and B^c rows."""
    counts = {"nodes": 0, "overlays": 0, "blocks": 0, "rows": 0}
    stack = [method._root]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if not isinstance(node, _Node):
            counts["blocks"] += 1
            continue
        counts["nodes"] += 1
        for overlay in node.overlays:
            if overlay is not None:
                counts["overlays"] += 1
                counts["rows"] += sum(len(group) for group in overlay._groups if group)
        stack.extend(node.children)
    return counts


def _predicted(cells, capacity: int, leaf_side: int) -> dict:
    """What lazy allocation predicts: one object per distinct path prefix.

    A node of side ``s`` exists for every distinct ``cell // s`` with
    ``s > leaf_side``; an overlay box for every distinct child region
    below the root; a leaf block for every distinct ``cell // leaf_side``;
    and a 2-D box of side ``h`` holds one B^c row per group per distinct
    cross-position (the other axis's offset) of the cells inside it.
    """
    def prefixes(side):
        return {(x // side, y // side) for x, y in cells}

    nodes = overlays = rows = 0
    side = capacity
    while side > leaf_side:
        nodes += len(prefixes(side))
        half = side // 2
        overlays += len(prefixes(half))
        for axis in (0, 1):
            rows += len({(x // half, y // half, (y, x)[axis] % half) for x, y in cells})
        side = half
    return {
        "nodes": nodes,
        "overlays": overlays,
        "blocks": len(prefixes(leaf_side)),
        "rows": rows,
    }


@pytest.mark.parametrize("batched", [False, True])
def test_uniform_adds_allocate_exactly_the_touched_paths(batched):
    """Seeded uniform adds into an empty 256x256 cube allocate what lazy
    allocation predicts, whether they arrive one by one or in batches."""
    rng = np.random.default_rng(35)
    method = method_class("ddc")((256, 256))
    assert _allocation(method) == {"nodes": 0, "overlays": 0, "blocks": 0, "rows": 0}
    cells = [tuple(int(v) for v in row) for row in rng.integers(0, 256, size=(3000, 2))]
    deltas = [int(v) for v in rng.integers(1, 10, size=len(cells))]
    touched: set = set()
    for start in range(0, len(cells), 500):
        chunk = list(zip(cells[start : start + 500], deltas[start : start + 500]))
        if batched:
            method.add_many(chunk)
        else:
            for cell, delta in chunk:
                method.add(cell, delta)
        touched.update(cell for cell, _ in chunk)
        assert _allocation(method) == _predicted(touched, 256, method.leaf_side)
    # Re-adding to cells already present allocates nothing more.
    before = _allocation(method)
    for cell in cells[:200]:
        method.add(cell, 1)
    assert _allocation(method) == before
