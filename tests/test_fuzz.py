"""Structural fuzzing: long mixed operation sequences with invariant checks.

These tests hammer the Dynamic Data Cube with randomly interleaved
updates, queries, expansions, batches, and conversions while repeatedly
validating every internal invariant and cross-checking results against a
dense oracle — the closest thing to fault injection a deterministic
structure admits.

Example counts are sized for the PR path; the nightly deep-fuzz job sets
``REPRO_FUZZ_SCALE`` (an integer multiplier, default 1) to run the same
programs at soak depth.  The multiplier must live in the per-test
``@settings`` decorators — they override any registered hypothesis
profile, so an env-var profile alone would silently not apply.
"""

from __future__ import annotations

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sanitize
from repro.convert import convert
from repro.core.basic_ddc import BasicDynamicDataCube
from repro.core.bc_tree import BcTree
from repro.core.ddc import DynamicDataCube
from repro.core.growth import GrowableCube
from repro.core.keyed_bc_tree import KeyedBcTree
from repro.persist import load_cube, save_cube

#: Nightly soak multiplier for every max_examples below (1 on the PR path).
_SCALE = max(1, int(os.environ.get("REPRO_FUZZ_SCALE", "1")))


@st.composite
def fuzz_program(draw):
    """A random sequence of cube operations with a seed for the data."""
    seed = draw(st.integers(0, 2**31))
    side = draw(st.sampled_from([4, 8, 16]))
    leaf_side = draw(st.sampled_from([1, 2, 4]))
    steps = draw(
        st.lists(
            st.sampled_from(["add", "set", "batch", "query", "expand", "validate"]),
            max_size=25,
        )
    )
    return seed, side, leaf_side, steps


class TestDdcFuzz:
    @settings(max_examples=20 * _SCALE, deadline=None)
    @given(program=fuzz_program(), cube_class=st.sampled_from(["ddc", "basic"]))
    def test_mixed_operations_stay_consistent(self, program, cube_class):
        seed, side, leaf_side, steps = program
        rng = np.random.default_rng(seed)
        cls = DynamicDataCube if cube_class == "ddc" else BasicDynamicDataCube
        oracle = rng.integers(-5, 6, size=(side, side))
        cube = cls.from_array(oracle.copy(), leaf_side=leaf_side)
        oracle = np.array(oracle)

        for step in steps:
            current_side = cube.shape[0]
            if step == "add":
                cell = tuple(int(rng.integers(0, current_side)) for _ in range(2))
                delta = int(rng.integers(-5, 6))
                cube.add(cell, delta)
                oracle[cell] += delta
            elif step == "set":
                cell = tuple(int(rng.integers(0, current_side)) for _ in range(2))
                value = int(rng.integers(-9, 10))
                cube.set(cell, value)
                oracle[cell] = value
            elif step == "batch":
                batch = []
                for _ in range(int(rng.integers(1, 6))):
                    cell = tuple(
                        int(rng.integers(0, current_side)) for _ in range(2)
                    )
                    delta = int(rng.integers(-5, 6))
                    batch.append((cell, delta))
                    oracle[cell] += delta
                cube.add_many(batch)
            elif step == "query":
                low = tuple(int(rng.integers(0, current_side)) for _ in range(2))
                high = tuple(
                    int(rng.integers(lo, current_side)) for lo in low
                )
                region = tuple(slice(lo, hi + 1) for lo, hi in zip(low, high))
                assert cube.range_sum(low, high) == oracle[region].sum()
            elif step == "expand":
                if cube.shape[0] >= 32:
                    continue  # keep validate() affordable
                corner = int(rng.integers(0, 4))
                cube.expand(corner)
                grown = np.zeros((oracle.shape[0] * 2,) * 2, dtype=oracle.dtype)
                row = oracle.shape[0] if corner & 1 else 0
                column = oracle.shape[1] if corner & 2 else 0
                grown[
                    row : row + oracle.shape[0], column : column + oracle.shape[1]
                ] = oracle
                oracle = grown
            elif step == "validate":
                if cube.shape[0] <= 16:  # full validation is O(n^2 log n)
                    cube.validate()

        cube.validate()
        assert np.array_equal(cube.to_dense(), oracle)
        assert cube.total() == oracle.sum()

    @settings(max_examples=25 * _SCALE, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_convert_round_trips_preserve_everything(self, seed):
        """ddc -> ps -> fenwick -> ddc must be the identity."""
        rng = np.random.default_rng(seed)
        data = rng.integers(-9, 10, size=(int(rng.integers(2, 12)),) * 2)
        start = DynamicDataCube.from_array(data)
        chain = convert(convert(convert(start, "ps"), "fenwick"), "ddc")
        assert np.array_equal(chain.to_dense(), data)
        chain.validate()

    @settings(max_examples=15 * _SCALE, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_persist_round_trip_mid_lifecycle(self, seed, tmp_path_factory):
        """Save/load at a random point, then keep operating."""
        rng = np.random.default_rng(seed)
        cube = DynamicDataCube((16, 16))
        oracle = np.zeros((16, 16), dtype=np.int64)
        for _ in range(int(rng.integers(0, 20))):
            cell = tuple(int(rng.integers(0, 16)) for _ in range(2))
            delta = int(rng.integers(-5, 6))
            cube.add(cell, delta)
            oracle[cell] += delta
        path = tmp_path_factory.mktemp("fuzz") / "cube.npz"
        save_cube(cube, path)
        restored = load_cube(path)
        for _ in range(int(rng.integers(0, 10))):
            cell = tuple(int(rng.integers(0, 16)) for _ in range(2))
            delta = int(rng.integers(-5, 6))
            restored.add(cell, delta)
            oracle[cell] += delta
        restored.validate()
        assert np.array_equal(restored.to_dense(), oracle)


class TestSanitizerFuzz:
    """Random interleavings with a full audit after *every* mutation.

    :func:`repro.analysis.sanitize` wraps each structure so the audit
    runs inside the operation sequence, pinning a corruption to the
    exact operation that introduced it instead of a later query.
    """

    @settings(max_examples=15 * _SCALE, deadline=None)
    @given(seed=st.integers(0, 2**31), fanout=st.sampled_from([4, 8]))
    def test_bc_tree_every_mutation_audited(self, seed, fanout):
        rng = np.random.default_rng(seed)
        tree = sanitize(BcTree(fanout=fanout))
        mirror: list[int] = []
        for _ in range(30):
            op = rng.choice(["append", "insert", "add", "set", "delete"])
            if op == "append" or not mirror:
                value = int(rng.integers(-9, 10))
                tree.append(value)
                mirror.append(value)
            elif op == "insert":
                rank = int(rng.integers(0, len(mirror) + 1))
                value = int(rng.integers(-9, 10))
                tree.insert(rank, value)
                mirror.insert(rank, value)
            elif op == "add":
                rank = int(rng.integers(0, len(mirror)))
                delta = int(rng.integers(-5, 6))
                tree.add(rank, delta)
                mirror[rank] += delta
            elif op == "set":
                rank = int(rng.integers(0, len(mirror)))
                value = int(rng.integers(-9, 10))
                tree.set(rank, value)
                mirror[rank] = value
            else:
                rank = int(rng.integers(0, len(mirror)))
                tree.delete(rank)
                del mirror[rank]
        assert tree.to_list() == mirror
        assert tree.audits >= 30

    @settings(max_examples=15 * _SCALE, deadline=None)
    @given(seed=st.integers(0, 2**31), fanout=st.sampled_from([4, 8]))
    def test_keyed_bc_tree_every_mutation_audited(self, seed, fanout):
        rng = np.random.default_rng(seed)
        tree = sanitize(KeyedBcTree(fanout=fanout))
        mirror: dict[int, int] = {}
        for _ in range(30):
            key = int(rng.integers(-50, 50))
            if rng.random() < 0.5:
                delta = int(rng.integers(-5, 6))
                tree.add(key, delta)
                mirror[key] = mirror.get(key, 0) + delta
            else:
                value = int(rng.integers(-9, 10))
                tree.set(key, value)
                mirror[key] = value
        assert tree.total() == sum(mirror.values())
        for key in list(mirror)[:5]:
            assert tree.get(key) == mirror[key]
        assert tree.audits >= 30

    @settings(max_examples=10 * _SCALE, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_ddc_every_mutation_audited(self, seed):
        rng = np.random.default_rng(seed)
        cube = sanitize(DynamicDataCube((8, 8)))
        oracle = np.zeros((8, 8), dtype=np.int64)
        mutations = 0
        for _ in range(20):
            side = cube.shape[0]
            op = rng.choice(["add", "set", "batch", "expand"])
            if op == "add":
                cell = tuple(int(rng.integers(0, side)) for _ in range(2))
                delta = int(rng.integers(-5, 6))
                cube.add(cell, delta)
                oracle[cell] += delta
            elif op == "set":
                cell = tuple(int(rng.integers(0, side)) for _ in range(2))
                value = int(rng.integers(-9, 10))
                cube.set(cell, value)
                oracle[cell] = value
            elif op == "batch":
                batch = []
                for _ in range(int(rng.integers(1, 4))):
                    cell = tuple(int(rng.integers(0, side)) for _ in range(2))
                    delta = int(rng.integers(-5, 6))
                    batch.append((cell, delta))
                    oracle[cell] += delta
                cube.add_many(batch)
            elif op == "expand":
                if side >= 16:  # keep the per-mutation audits affordable
                    continue
                corner = int(rng.integers(0, 4))
                cube.expand(corner)
                grown = np.zeros((side * 2,) * 2, dtype=oracle.dtype)
                row = side if corner & 1 else 0
                column = side if corner & 2 else 0
                grown[row : row + side, column : column + side] = oracle
                oracle = grown
            mutations += 1
        assert np.array_equal(cube.to_dense(), oracle)
        assert cube.audits == mutations


class TestVectorDifferentialFuzz:
    """Differential fuzz: the slab-tree backend vs the reference DDC.

    The vector backend reimplements the paper's descent as flat numpy
    slabs; any divergence from the pure-python reference under a random
    interleaving of point updates, batched updates, and batched range
    queries is a bug in one of them.  A dense numpy oracle arbitrates.
    """

    @settings(max_examples=20 * _SCALE, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        shape=st.sampled_from([(8, 8), (16, 16), (7, 13), (5, 6, 4)]),
        branching=st.sampled_from([2, 4, 16]),
        steps=st.lists(
            st.sampled_from(["add", "add_many", "range_many", "prefix_many"]),
            max_size=20,
        ),
    )
    def test_vector_tracks_reference(self, seed, shape, branching, steps):
        from repro.methods.vector import VectorSlabCube

        rng = np.random.default_rng(seed)
        dims = len(shape)
        oracle = rng.integers(-9, 10, size=shape)
        vector = VectorSlabCube.from_array(oracle.copy(), branching=branching)
        reference = DynamicDataCube.from_array(oracle.copy())
        oracle = np.array(oracle)
        # Exercise the batched kernels even for tiny fuzz batches.
        vector.batch_crossover = 1
        reference.batch_crossover = 1

        def cell():
            return tuple(int(rng.integers(0, n)) for n in shape)

        for step in steps:
            if step == "add":
                target = cell()
                delta = int(rng.integers(-5, 6))
                vector.add(target, delta)
                reference.add(target, delta)
                oracle[target] += delta
            elif step == "add_many":
                batch = []
                for _ in range(int(rng.integers(1, 8))):
                    target = cell()
                    delta = int(rng.integers(-5, 6))
                    batch.append((target, delta))
                    oracle[target] += delta
                vector.add_many(batch)
                reference.add_many(batch)
            elif step == "range_many":
                ranges = []
                for _ in range(int(rng.integers(1, 8))):
                    low = cell()
                    high = tuple(
                        int(rng.integers(lo, shape[axis]))
                        for axis, lo in enumerate(low)
                    )
                    ranges.append((low, high))
                got = vector.range_sum_many(ranges)
                ref = reference.range_sum_many(ranges)
                expected = [
                    int(
                        oracle[
                            tuple(
                                slice(lo, hi + 1)
                                for lo, hi in zip(low, high)
                            )
                        ].sum()
                    )
                    for low, high in ranges
                ]
                assert [int(v) for v in got] == expected
                assert [int(v) for v in ref] == expected
            elif step == "prefix_many":
                cells = [cell() for _ in range(int(rng.integers(1, 8)))]
                got = vector.prefix_sum_many(cells)
                ref = reference.prefix_sum_many(cells)
                assert [int(v) for v in got] == [int(v) for v in ref]

        assert np.array_equal(vector.to_dense(), oracle)
        assert int(vector.total()) == int(oracle.sum())
        assert dims == len(vector.shape)

    @settings(max_examples=30 * _SCALE, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**31),
        branching=st.sampled_from([2, 4, 16]),
        dims=st.integers(1, 3),
        plane=st.sampled_from(["by-volume", "always", "never"]),
        steps=st.lists(
            st.sampled_from(["add", "add_many", "range_many", "prefix_many"]),
            min_size=1,
            max_size=12,
        ),
    )
    def test_awkward_extents_track_dense_oracle(
        self, data, seed, branching, dims, plane, steps
    ):
        """Slabs sized to the cube, not to ``b**H``: extents one off a
        block or a sibling group on either side, both update branches."""
        from repro.methods.vector import VectorSlabCube

        b = branching
        extents = sorted({1, 2, b - 1, b, b + 1, b * b - 1, b * b, b * b + 1, 100, 37})
        shape = tuple(
            data.draw(st.sampled_from(extents), label=f"extent {axis}")
            for axis in range(dims)
        )
        if int(np.prod(shape)) > 20_000:
            shape = shape[:-1] + (2,)
        rng = np.random.default_rng(seed)
        oracle = rng.integers(-9, 10, size=shape)
        vector = VectorSlabCube.from_array(oracle.copy(), branching=b)
        vector.batch_crossover = 1
        if plane != "by-volume":
            for level in vector.tree._levels:
                level.plane_cost = 0 if plane == "always" else 2**62

        def cell():
            return tuple(int(rng.integers(0, n)) for n in shape)

        for step in steps:
            if step == "add":
                target, delta = cell(), int(rng.integers(-5, 6))
                vector.add(target, delta)
                oracle[target] += delta
            elif step == "add_many":
                batch = [
                    (cell(), int(rng.integers(-5, 6)))
                    for _ in range(int(rng.integers(1, 40)))
                ]
                for target, delta in batch:
                    oracle[target] += delta
                vector.add_many(batch)
            elif step == "range_many":
                lows = [cell() for _ in range(int(rng.integers(1, 8)))]
                ranges = [
                    (
                        low,
                        tuple(
                            int(rng.integers(lo, shape[axis]))
                            for axis, lo in enumerate(low)
                        ),
                    )
                    for low in lows
                ]
                got = vector.range_sum_many(ranges)
                assert [int(v) for v in got] == [
                    int(
                        oracle[
                            tuple(slice(lo, hi + 1) for lo, hi in zip(low, high))
                        ].sum()
                    )
                    for low, high in ranges
                ]
            else:
                cells = [cell() for _ in range(int(rng.integers(1, 8)))]
                prefix = oracle
                for axis in range(dims):
                    prefix = prefix.cumsum(axis=axis)
                got = vector.prefix_sum_many(cells)
                assert [int(v) for v in got] == [int(prefix[c]) for c in cells]
        vector.validate()
        assert np.array_equal(vector.to_dense(), oracle)
        assert int(vector.total()) == int(oracle.sum())


class TestGrowableFuzz:
    @settings(max_examples=25 * _SCALE, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        scale=st.sampled_from([10, 1000, 10**6]),
    )
    def test_extreme_coordinate_scales(self, seed, scale):
        rng = np.random.default_rng(seed)
        cube = GrowableCube(dims=2, initial_side=4)
        reference: dict[tuple[int, int], int] = {}
        for _ in range(25):
            point = (
                int(rng.integers(-scale, scale)),
                int(rng.integers(-scale, scale)),
            )
            delta = int(rng.integers(1, 9))
            cube.add(point, delta)
            reference[point] = reference.get(point, 0) + delta
        assert cube.total() == sum(reference.values())
        if cube.side <= 1024:  # full validation materialises side^2 cells
            cube._cube.validate()
        for point, value in list(reference.items())[:5]:
            assert cube.get(point) == value
