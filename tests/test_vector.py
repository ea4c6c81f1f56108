"""Tests for the vectorised b-ary slab-tree backend.

The pure-python :class:`~repro.core.ddc.DynamicDataCube` is the
reference implementation of the paper's algorithm; these tests pin the
:class:`~repro.methods.vector.VectorSlabCube` production backend to it
(and to a dense numpy oracle) across shapes, dimensionalities, engines,
and kernel configurations.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis import audit
from repro.core import slab_tree
from repro.core.slab_tree import SlabTree, kernel_backend
from repro.engine import ShardedEngine
from repro.engine.shm import slab_range_sum_many_vector
from repro.exceptions import ConfigurationError, StructureError
from repro.methods import build_method
from repro.methods.vector import VectorSlabCube
from repro.obs import NULL_OBS, Observability
from repro.workloads import clustered, random_ranges


def dense_range_sum(data, low, high):
    region = tuple(slice(lo, hi + 1) for lo, hi in zip(low, high))
    return int(np.asarray(data)[region].sum())


class TestSlabTree:
    @pytest.mark.parametrize(
        "shape", [(8,), (16, 16), (7, 13), (33, 5), (4, 4, 4), (6, 3, 9)]
    )
    def test_prefix_matches_dense_cumsum(self, shape, rng):
        data = rng.integers(-9, 10, size=shape)
        tree = SlabTree(shape)
        tree.load_dense(data)
        prefix = data.copy()
        for axis in range(len(shape)):
            prefix = prefix.cumsum(axis=axis)
        cells = [
            tuple(int(rng.integers(0, n)) for n in shape) for _ in range(40)
        ]
        for cell in cells:
            assert int(tree.prefix_one(cell)) == int(prefix[cell])
        coords = np.asarray(cells, dtype=np.int64)
        assert list(tree.prefix_many(coords)) == [
            int(prefix[cell]) for cell in cells
        ]

    def test_range_many_matches_dense(self, rng):
        shape = (24, 24)
        data = rng.integers(-9, 10, size=shape)
        tree = SlabTree(shape, branching=4)
        tree.load_dense(data)
        queries = random_ranges(shape, 50, seed=3)
        lows = np.asarray([q.low for q in queries], dtype=np.int64)
        highs = np.asarray([q.high for q in queries], dtype=np.int64)
        got = list(tree.range_many(lows, highs))
        expected = [dense_range_sum(data, q.low, q.high) for q in queries]
        assert [int(v) for v in got] == expected

    def test_point_and_batch_updates_agree(self, rng):
        shape = (17, 9)
        one = SlabTree(shape, branching=4)
        two = SlabTree(shape, branching=4)
        dense = np.zeros(shape, dtype=np.int64)
        updates = []
        for _ in range(60):
            cell = tuple(int(rng.integers(0, n)) for n in shape)
            delta = int(rng.integers(-5, 6))
            updates.append((cell, delta))
            dense[cell] += delta
            one.add_one(cell, delta)
        cells = np.asarray([cell for cell, _ in updates], dtype=np.int64)
        deltas = np.asarray([delta for _, delta in updates], dtype=np.int64)
        two.add_batch(cells, deltas)
        assert np.array_equal(one.buffer, two.buffer)
        prefix = dense.cumsum(axis=0).cumsum(axis=1)
        cell = tuple(n - 1 for n in shape)
        assert int(one.prefix_one(cell)) == int(prefix[cell])

    def test_branching_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            SlabTree((8, 8), branching=6)
        with pytest.raises(ConfigurationError):
            SlabTree((8, 8), branching=1)
        with pytest.raises(ConfigurationError):
            SlabTree((0, 8))

    @pytest.mark.parametrize("shape", [(10,), (16, 1), (17,)])
    def test_load_dense_rejects_a_wrong_shaped_cube(self, shape):
        tree = SlabTree((16,))
        with pytest.raises(ConfigurationError, match="does not fit slab tree"):
            tree.load_dense(np.ones(shape, dtype=np.int64))
        assert not tree.buffer.any()

    def test_level_layout_covers_buffer(self):
        tree = SlabTree((64, 64), branching=8)
        layout = tree.level_layout()
        assert len(layout) == tree.level_count
        assert sum(row["cells"] for row in layout) == tree.memory_cells()

    @pytest.mark.parametrize("shape", [(33, 17), (5, 6, 4)])
    def test_validate_round_trips_and_detects_corruption(self, shape, rng):
        data = rng.integers(-9, 10, size=shape)
        tree = SlabTree(shape, branching=4)
        tree.load_dense(data.astype(np.int64))
        tree.validate()
        tree.buffer[tree._levels[1].offset + 3] += 1
        with pytest.raises(StructureError, match="inconsistent"):
            tree.validate()

    def test_audit_dispatches_to_validate(self, rng):
        # ``repro audit`` reaches the method through the analysis
        # fallback — a vector cube must be auditable like every other
        # structure, and a planted slab corruption must surface a path.
        data = rng.integers(0, 50, size=(16, 16))
        cube = VectorSlabCube.from_array(data, branching=4)
        report = audit(cube)
        assert report.checks == 1 and not report.findings
        # Corrupt an *internal* slab cell — the redundant part of the
        # decomposition, which the round trip must flag.  (A tree whose
        # every level is leaf-level is just the free prefix grid and
        # has no redundancy to check.)
        cube.tree.buffer[cube.tree._levels[0].offset + 1] += 1
        with pytest.raises(StructureError, match="slab"):
            audit(cube)

    def test_numpy_fallback_is_live_without_numba(self):
        # The container has no numba, so the fallback must be active
        # (and the claim is load-bearing: CI exercises exactly this path).
        if slab_tree.HAVE_NUMBA:
            pytest.skip("numba present; fallback covered by REPRO_NO_NUMBA")
        assert kernel_backend() == "numpy"

    def test_no_numba_env_forces_numpy_kernel(self):
        code = (
            "from repro.core.slab_tree import kernel_backend; "
            "print(kernel_backend())"
        )
        env = dict(os.environ, REPRO_NO_NUMBA="1")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == "numpy"


def _awkward_shapes():
    """Extents one off a block / a sibling group on either side, d <= 3."""
    cases = []
    for b in (2, 4, 16):
        extents = sorted({1, 2, b - 1, b, b + 1, b * b - 1, b * b, b * b + 1, 100, 37})
        draw = np.random.default_rng(b)
        shapes = [(n,) for n in extents]
        for dims in (2, 3):
            while len(shapes) < len(extents) + (8 if dims == 2 else 14):
                shape = tuple(int(n) for n in draw.choice(extents, size=dims))
                if int(np.prod(shape)) <= 12_000:
                    shapes.append(shape)
        cases += [
            pytest.param(b, shape, id=f"b{b}-" + "x".join(map(str, shape)))
            for shape in shapes
        ]
    return cases


def _level_volumes(tree, cells):
    """Per level ``(cells, count)`` of the non-empty sibling-suffix
    rectangles, recomputed from ``level_layout()`` alone (the
    independent count for ``written``)."""
    log2b = tree.branching.bit_length() - 1
    volumes = []
    for row in tree.level_layout():
        total = rectangles = 0
        for cell in cells:
            size = 1
            for axis, coord in enumerate(cell):
                slot = int(coord) >> row["shifts"][axis]
                leaf = row["combo"][axis] == tree.heights[axis] - 1
                group_end = ((slot >> log2b) + 1) << log2b
                end = min(group_end, row["shape"][axis])
                size *= max(0, end - slot - (0 if leaf else 1))
            total += size
            rectangles += size > 0
        volumes.append((total, rectangles))
    return volumes


class TestSlabLayout:
    """Level slabs at the cube's own size (no ``b**H`` padding)."""

    @pytest.mark.parametrize("branching, shape", _awkward_shapes())
    def test_awkward_extents_match_dense_oracle(self, branching, shape, rng):
        dims = len(shape)
        dense = rng.integers(-9, 10, size=shape)
        tree = SlabTree(shape, branching=branching)
        tree.load_dense(dense)
        tree.validate()
        scalar = SlabTree(shape, branching=branching)
        scalar.load_dense(dense)

        def draw(count):
            return np.stack(
                [rng.integers(0, n, size=count) for n in shape], axis=1
            ).astype(np.int64)

        by_volume = [level.plane_cost for level in tree._levels]
        for costs in ([0] * len(by_volume), [2**62] * len(by_volume), by_volume):
            # every slab takes the plane / the rectangles / the cheaper
            for level, cost in zip(tree._levels, costs):
                level.plane_cost = cost
            cells, deltas = draw(25), rng.integers(-5, 6, size=25)
            lone = tuple(int(v) for v in draw(1)[0])
            written = tree.add_one(lone, 3) + tree.add_batch(cells, deltas)
            expected = scalar.add_one(lone, 3)
            dense[lone] += 3
            for cell, delta in zip(cells, deltas):
                expected += scalar.add_one(tuple(int(v) for v in cell), int(delta))
                dense[tuple(cell)] += delta
            assert written == expected == sum(
                volume for volume, _ in _level_volumes(tree, [lone, *cells])
            )
            assert np.array_equal(tree.buffer, scalar.buffer)
        prefix = dense
        for axis in range(dims):
            prefix = prefix.cumsum(axis=axis)
        coords = draw(60)
        assert list(tree.prefix_many(coords)) == [int(prefix[tuple(c)]) for c in coords]
        lows, spans = draw(40), draw(40)
        highs = np.minimum(lows + spans, np.asarray(shape) - 1)
        assert [int(v) for v in tree.range_many(lows, highs)] == [
            dense_range_sum(dense, low, high) for low, high in zip(lows, highs)
        ]
        tree.validate()

    @pytest.mark.parametrize("branching, shape", _awkward_shapes())
    def test_validate_names_the_slab_of_a_perturbed_cell(self, branching, shape, rng):
        tree = SlabTree(shape, branching=branching)
        tree.load_dense(rng.integers(-9, 10, size=shape))
        # Every slab with an internal axis is redundant: no cube explains
        # a changed sibling prefix.  (The all-leaf slab is the free part.)
        redundant = tree._levels[:-1]
        for level in redundant[:: max(1, len(redundant) // 6)]:
            local = int(rng.integers(0, level.cells))
            tree.buffer[level.offset + local] += 1
            with pytest.raises(StructureError, match=r"slab \(.*\) cell \d+ inconsistent"):
                tree.validate()
            tree.buffer[level.offset + local] -= 1
        tree.validate()

    @pytest.mark.parametrize(
        "shape", [(64, 64, 64), (1024, 1024), (256, 256), (16, 64, 64)]
    )
    def test_storage_stays_near_the_cube(self, shape):
        # prod(1 + 1/b + ...) ~ 1.07**d at b = 16; the padded layout held
        # 76.8, 18.2, 1.13 and 18.06 cells per cube cell here.
        tree = SlabTree(shape)
        assert tree.memory_cells() / np.prod(shape) <= 1.25
        assert not hasattr(tree, "capacities")

    def test_level_shapes_are_pinned(self):
        def shapes(shape):
            return [tuple(row["shape"]) for row in SlabTree(shape).level_layout()]

        assert shapes((256, 256)) == [(16, 16), (16, 256), (256, 16), (256, 256)]
        assert shapes((16, 64, 64)) == [
            (16, 4, 4), (16, 4, 64), (16, 64, 4), (16, 64, 64),
        ]

    @pytest.mark.parametrize("shape", [(16, 64, 64), (64, 64, 64), (37, 100)])
    @pytest.mark.parametrize("count", [16, 64, 256, 4096])
    def test_batch_update_is_priced_by_work(self, shape, count, rng, monkeypatch):
        """Forced-batch ``add_batch`` does no more work than the scalar
        loop: a slab takes the plane only when its rectangles — their
        cells plus a constant each — already cost the plane's ``d + 2``
        sweeps, so what it sweeps is bounded by what the loop writes."""
        tree = SlabTree(shape)
        planes = []
        real = SlabTree._add_plane

        def spy(self, level, tensor, starts, deltas):
            planes.append(level.combo)
            real(self, level, tensor, starts, deltas)

        monkeypatch.setattr(SlabTree, "_add_plane", spy)
        cells = np.stack([rng.integers(0, n, size=count) for n in shape], axis=1)
        written = tree.add_batch(cells, np.ones(count, dtype=np.int64))
        volumes = _level_volumes(tree, cells)
        assert written == sum(volume for volume, _ in volumes)
        swept = rectangles = 0
        for level, (volume, count_hit) in zip(tree._levels, volumes):
            assert level.plane_cost >= (len(shape) + 2) * level.cells
            loop_cost = volume + slab_tree._RECT_CELLS * count_hit
            if level.combo in planes:
                assert loop_cost >= level.plane_cost
                swept += level.plane_cost
            else:
                assert loop_cost < level.plane_cost
                swept += volume
            rectangles += count_hit
        assert swept <= written + slab_tree._RECT_CELLS * rectangles
        if count == 16 and len(shape) == 3:
            # engine_batch_3d's per-shard group: never a sweep of a slab.
            assert not planes
        if count == 4096:
            assert planes, "the plane branch must stay reachable by volume"


class TestVectorSlabCube:
    @pytest.mark.parametrize("shape", [(16,), (16, 16), (9, 21), (5, 6, 7)])
    def test_matches_reference_ddc(self, shape, rng):
        data = rng.integers(-9, 10, size=shape)
        vector = build_method("vector", data)
        reference = build_method("ddc", data)
        queries = random_ranges(shape, 30, seed=7)
        for query in queries:
            assert int(vector.range_sum(query.low, query.high)) == int(
                reference.range_sum(query.low, query.high)
            )
        ranges = [(q.low, q.high) for q in queries]
        assert [int(v) for v in vector.range_sum_many(ranges)] == [
            int(v) for v in reference.range_sum_many(ranges)
        ]

    def test_updates_then_queries_match_dense(self, rng):
        shape = (12, 12)
        dense = np.zeros(shape, dtype=np.int64)
        vector = VectorSlabCube(shape)
        for _ in range(40):
            cell = tuple(int(rng.integers(0, n)) for n in shape)
            delta = int(rng.integers(-5, 6))
            vector.add(cell, delta)
            dense[cell] += delta
        batch = []
        for _ in range(20):
            cell = tuple(int(rng.integers(0, n)) for n in shape)
            delta = int(rng.integers(-5, 6))
            batch.append((cell, delta))
            dense[cell] += delta
        vector.batch_crossover = 1
        vector.add_many(batch)
        del vector.batch_crossover
        for query in random_ranges(shape, 25, seed=9):
            assert int(vector.range_sum(query.low, query.high)) == (
                dense_range_sum(dense, query.low, query.high)
            )

    def test_batch_and_scalar_paths_agree(self, rng):
        data = rng.integers(-9, 10, size=(20, 20))
        vector = build_method("vector", data)
        cells = [
            tuple(int(rng.integers(0, 20)) for _ in range(2))
            for _ in range(32)
        ]
        vector.batch_crossover = 1
        forced = vector.prefix_sum_many(cells)
        del vector.batch_crossover
        scalar = [vector.prefix_sum(cell) for cell in cells]
        assert [int(v) for v in forced] == [int(v) for v in scalar]

    def test_from_array_round_trips_dense(self, rng):
        data = rng.integers(-9, 10, size=(10, 14))
        vector = VectorSlabCube.from_array(data)
        assert np.array_equal(vector.to_dense(), data)

    def test_counters_are_path_independent(self, rng):
        """Cost counters match across the batch and scalar paths."""
        data = rng.integers(-9, 10, size=(16, 16))
        vector = build_method("vector", data)
        cells = [
            tuple(int(rng.integers(0, 16)) for _ in range(2))
            for _ in range(24)
        ]
        vector.stats.reset()
        vector.batch_crossover = 1
        vector.prefix_sum_many(cells)
        batched = vector.stats.snapshot()
        vector.stats.reset()
        vector.batch_crossover = 10**9
        vector.prefix_sum_many(cells)
        scalar = vector.stats.snapshot()
        assert batched.node_visits == scalar.node_visits
        assert batched.cell_reads == scalar.cell_reads

    def test_scalar_fallbacks_charge_what_the_batch_path_charges(self, rng):
        """``add_many`` / ``range_sum_many`` below the crossover go
        straight to the tree: same answers, same buffer, same counters."""
        data = rng.integers(-9, 10, size=(37, 20))
        batched = build_method("vector", data)
        fallback = build_method("vector", data)
        batched.batch_crossover = 1
        fallback.batch_crossover = 10**9
        updates = [
            ((int(rng.integers(0, 37)), int(rng.integers(0, 20))), int(delta))
            for delta in rng.integers(-5, 6, size=30)
        ]
        ranges = [(q.low, q.high) for q in random_ranges((37, 20), 30, seed=5)]
        for method in (batched, fallback):
            method.stats.reset()
            method.add_many(updates)
            method.add_many([((np.int64(36), np.int64(19)), 5)])  # coerced once
        assert batched.last_batch_path == "batch"
        assert fallback.last_batch_path == "scalar"
        assert np.array_equal(batched.tree.buffer, fallback.tree.buffer)
        assert [int(v) for v in batched.range_sum_many(ranges)] == [
            int(v) for v in fallback.range_sum_many(ranges)
        ]
        assert batched.stats.snapshot() == fallback.stats.snapshot()
        assert batched.stats.cell_writes > 0 and batched.stats.cell_reads > 0

    def test_scalar_fallbacks_report_like_the_batch_path(self, rng):
        """With obs wired, a ``*_many`` call below the crossover observes
        the descent once per call and opens no per-query span or
        ``method_query_*`` sample — what the batch path reports."""
        data = rng.integers(-9, 10, size=(20, 20))
        ranges = [(q.low, q.high) for q in random_ranges((20, 20), 12, seed=3)]
        updates = [((int(i), int(i)), 1) for i in range(12)]
        reports = {}
        for path, crossover in (("batch", 1), ("scalar", 10**9)):
            vector = build_method("vector", data)
            vector.obs = obs = Observability()
            vector.batch_crossover = crossover
            vector.range_sum_many(ranges)
            vector.add_many(updates)
            assert vector.last_batch_path == path
            depth = obs.descent_depth
            reports[path] = (
                depth.labels(structure="slab-tree", op="prefix").count,
                depth.labels(structure="slab-tree", op="add").count,
                obs.method_query_seconds.labels(method="vector").count,
                obs.method_query_ops.labels(method="vector").count,
                obs.batch_path_total.labels(method="vector", path=path).value,
            )
        assert reports["scalar"] == reports["batch"] == (1, 1, 0, 0, 2)

    def test_obs_instrumentation_records_descent(self, rng):
        data = rng.integers(0, 5, size=(16, 16))
        vector = build_method("vector", data)
        obs = Observability()
        vector.obs = obs
        vector.prefix_sum((3, 3))
        vector.add((1, 2), 4)
        vector.batch_crossover = 1
        vector.prefix_sum_many([(0, 0), (5, 5)])
        rendered = obs.metrics.render_prometheus()
        assert "descent_depth" in rendered and "slab-tree" in rendered, (
            f"no slab-tree descent samples in:\n{rendered}"
        )
        vector.obs = NULL_OBS
        vector.prefix_sum((2, 2))  # NULL_OBS path stays exercised


class TestVectorEngine:
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    @pytest.mark.parametrize("executor", [None, "process"])
    def test_engine_equivalence(self, shards, executor, rng):
        data = clustered((32, 32), seed=13)
        reference = build_method("ddc", data)
        engine = ShardedEngine.from_array(
            data,
            shards=shards,
            method="vector",
            workers=2 if executor else None,
            executor=executor,
        )
        try:
            queries = random_ranges((32, 32), 20, seed=17)
            for query in queries:
                assert int(engine.range_sum(query.low, query.high)) == int(
                    reference.range_sum(query.low, query.high)
                )
            for _ in range(10):
                cell = tuple(int(rng.integers(0, 32)) for _ in range(2))
                delta = int(rng.integers(-5, 6))
                engine.add(cell, delta)
                reference.add(cell, delta)
            for query in queries:
                assert int(engine.range_sum(query.low, query.high)) == int(
                    reference.range_sum(query.low, query.high)
                )
        finally:
            engine.close()

    def test_vector_read_kernel_matches_scalar(self, rng):
        """The one shm read kernel against ``cube[lo:hi+1].sum()`` in
        d = 1, 2, 3: its scalar loop (counts below 8) and its vector
        gather (from 8) agree with the dense oracle on both sides of
        the switch and on the boundary, ``low == 0`` corners included."""
        for shape in ((40,), (16, 16), (6, 7, 8)):
            data = rng.integers(-9, 10, size=shape)
            prefix = data.copy()
            for axis in range(len(shape)):
                prefix = prefix.cumsum(axis=axis)
            for count in (1, 2, 7, 8, 9, 64):
                ranges = [
                    (q.low, q.high)
                    for q in random_ranges(shape, count, seed=23 + count)
                ]
                # Every other query sits on the origin in some axes,
                # the last one in all of them.
                for position in range(0, count, 2):
                    low, high = ranges[position]
                    pinned = tuple(
                        0 if (position // 2 + axis) % 2 == 0 else coordinate
                        for axis, coordinate in enumerate(low)
                    )
                    ranges[position] = (pinned, high)
                ranges[-1] = ((0,) * len(shape), ranges[-1][1])
                values = slab_range_sum_many_vector(prefix, ranges)
                assert [int(v) for v in values] == [
                    dense_range_sum(data, low, high) for low, high in ranges
                ], (shape, count)
