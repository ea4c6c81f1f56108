"""Batch query engine: equivalence, shared-cost, and workload tests.

Every method's ``prefix_sum_many`` / ``range_sum_many`` / ``add_many``
must agree exactly with the scalar operations on every workload shape —
the batch engine is an optimization, never a semantic change.  On top of
equivalence, the path-sharing traversal must actually share: a clustered
batch on the Dynamic Data Cube performs strictly fewer ``node_visits``
than the same queries issued one at a time (the PR's acceptance
criterion).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bc_tree import BcTree
from repro.core.keyed_bc_tree import KeyedBcTree
from repro.exceptions import ConfigurationError
from repro.methods import build_method, method_class
from repro.obs import Observability
from repro.obs.clock import ManualClock, MonotonicClock
from repro.workloads import RangeQuery, clustered, dense_uniform, query_stream
from repro.workloads import sparse_uniform

WORKLOADS = {
    "dense": lambda: dense_uniform((9, 7), seed=1),
    "sparse": lambda: sparse_uniform((16, 16), density=0.08, seed=2),
    "clustered": lambda: clustered((16, 16), clusters=3, points_per_cluster=30, seed=3),
}


def _query_cells(shape, count, seed):
    """Half uniform, half zipf-clustered targets, with duplicates."""
    cells = query_stream(shape, count // 2, locality="uniform", seed=seed)
    cells += query_stream(shape, count - count // 2, locality="zipf", seed=seed + 1)
    return cells + cells[: max(1, count // 8)]


def _query_ranges(shape, count, seed):
    """Uniform inclusive ``(low, high)`` ranges."""
    rng = np.random.default_rng(seed)
    ranges = []
    for _ in range(count):
        low = tuple(int(rng.integers(0, size)) for size in shape)
        high = tuple(int(rng.integers(l, size)) for l, size in zip(low, shape))
        ranges.append((low, high))
    return ranges


# ----------------------------------------------------------------------
# Equivalence across every method and workload
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_prefix_sum_many_matches_scalar(method_name, workload):
    data = WORKLOADS[workload]()
    method = build_method(method_name, data)
    cells = _query_cells(data.shape, 40, seed=10)
    batch = method.prefix_sum_many(cells)
    scalar = [method.prefix_sum(cell) for cell in cells]
    assert [int(value) for value in batch] == [int(value) for value in scalar]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_range_sum_many_matches_scalar(method_name, workload):
    data = WORKLOADS[workload]()
    ranges = _query_ranges(data.shape, 20, seed=11)
    method = build_method(method_name, data)
    expected = [int(method.range_sum(low, high)) for low, high in ranges]
    # Plain (low, high) pairs and RangeQuery objects both work.
    assert [int(v) for v in method.range_sum_many(ranges)] == expected
    queries = [RangeQuery(low, high) for low, high in ranges]
    assert [int(v) for v in method.range_sum_many(queries)] == expected
    assert method.range_sum_many([]) == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("tree_method", ["ddc", "basic-ddc"])
def test_prefix_sum_many_forced_batch_matches_scalar(tree_method, workload):
    """The path-sharing traversal itself, below the class crossover too."""
    data = WORKLOADS[workload]()
    method = build_method(tree_method, data)
    method.batch_crossover = 1
    cells = _query_cells(data.shape, 40, seed=10)
    batch = method.prefix_sum_many(cells)
    assert method.last_batch_path == "batch"
    scalar = [method.prefix_sum(cell) for cell in cells]
    assert [int(value) for value in batch] == [int(value) for value in scalar]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("tree_method", ["ddc", "basic-ddc"])
def test_range_sum_many_forced_batch_matches_scalar(tree_method, workload):
    data = WORKLOADS[workload]()
    ranges = _query_ranges(data.shape, 20, seed=11)
    method = build_method(tree_method, data)
    method.batch_crossover = 1
    expected = [int(method.range_sum(low, high)) for low, high in ranges]
    assert [int(v) for v in method.range_sum_many(ranges)] == expected
    assert method.last_batch_path == "batch"


def test_dispatch_is_batch_exactly_from_the_crossover(method_name, monkeypatch):
    """Which path a batch takes is a pure function of class and count.

    The decision is read off ``repro_method_batch_path_total``, which
    counts the path that ran (``last_batch_path`` reports the same).
    """
    data = WORKLOADS["dense"]()
    method = build_method(method_name, data)
    method.obs = obs = Observability(clock=ManualClock())
    cells = _query_cells(data.shape, 16, seed=15)

    def dispatched(count):
        counters = {
            path: obs.batch_path_total.labels(method=method.name, path=path)
            for path in ("batch", "scalar")
        }
        before = {path: counter.value for path, counter in counters.items()}
        method.prefix_sum_many((cells * count)[:count])
        moved = [path for path, counter in counters.items() if counter.value > before[path]]
        assert len(moved) == 1, moved
        return moved[0]

    for crossover in (1, 5, 9):
        method.batch_crossover = crossover
        for count in range(1, 12):
            expected = "batch" if count >= crossover else "scalar"
            assert dispatched(count) == expected, (crossover, count)
    # Unpinned: the committed class constant decides, at its exact edge,
    # without reading the wall clock.
    del method.batch_crossover
    threshold = type(method).batch_crossover
    assert isinstance(threshold, int) and threshold > 1

    def no_clock():
        raise AssertionError("batch dispatch read the wall clock")

    monkeypatch.setattr(MonotonicClock, "now", staticmethod(no_clock))
    assert dispatched(threshold - 1) == "scalar"
    assert dispatched(threshold) == "batch"


@pytest.mark.parametrize("op", ["prefix_sum_many", "range_sum_many"])
def test_naive_counts_the_path_it_reports(op):
    """One decision per call: the counter's label is ``last_batch_path``,
    even for a one-cell batch whose region sum reads fewer cells than
    the cumulative pass."""
    data = WORKLOADS["dense"]()
    method = build_method("naive", data)
    method.obs = obs = Observability(clock=ManualClock())
    method.batch_crossover = 1
    item = (1, 1) if op == "prefix_sum_many" else ((0, 0), (1, 1))
    (value,) = getattr(method, op)([item])
    assert int(value) == int(data[:2, :2].sum())
    counted = {
        path: obs.batch_path_total.labels(method="naive", path=path).value
        for path in ("batch", "scalar")
    }
    assert counted == {"batch": 1, "scalar": 0}
    assert method.last_batch_path == "batch"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_add_many_matches_scalar(method_name, workload):
    data = WORKLOADS[workload]()
    rng = np.random.default_rng(12)
    updates = [
        (
            tuple(int(rng.integers(0, size)) for size in data.shape),
            int(rng.integers(-5, 6)),
        )
        for _ in range(30)
    ]
    # Duplicates and a zero-sum pair exercise the combining contract.
    updates += [updates[0], (updates[1][0], -updates[1][1])]
    batched = build_method(method_name, data)
    sequential = build_method(method_name, data)
    batched.add_many(updates)
    for cell, delta in updates:
        sequential.add(cell, delta)
    assert np.array_equal(batched.to_dense(), sequential.to_dense())
    assert int(batched.total()) == int(sequential.total())
    if hasattr(batched, "validate"):
        batched.validate()


@pytest.mark.parametrize("shape", [(13,), (8, 8, 8)])
def test_batch_queries_other_dimensionalities(method_name, shape):
    rng = np.random.default_rng(13)
    data = rng.integers(-4, 5, size=shape).astype(np.int64)
    method = build_method(method_name, data)
    cells = _query_cells(shape, 24, seed=14)
    batch = method.prefix_sum_many(cells)
    scalar = [method.prefix_sum(cell) for cell in cells]
    assert [int(value) for value in batch] == [int(value) for value in scalar]


def test_empty_batches(method_name):
    method = build_method(method_name, WORKLOADS["dense"]())
    assert method.prefix_sum_many([]) == []
    assert method.range_sum_many([]) == []
    before = method.to_dense()
    method.add_many([])
    assert np.array_equal(method.to_dense(), before)


# ----------------------------------------------------------------------
# Path sharing: the acceptance criterion
# ----------------------------------------------------------------------


def test_ddc_clustered_batch_shares_node_visits():
    """256 clustered queries on a 256x256 cube: batch visits < scalar.

    The crossover is pinned so the traversal under test runs, although
    ``ddc`` sends batches of up to 256 queries down scalar walks.
    """
    data = clustered((256, 256), clusters=4, points_per_cluster=100, seed=20)
    method = build_method("ddc", data)
    method.batch_crossover = 1
    cells = query_stream((256, 256), 256, locality="zipf", seed=21)
    method.stats.reset()
    batch = method.prefix_sum_many(cells)
    batch_visits = method.stats.node_visits
    method.stats.reset()
    scalar = [method.prefix_sum(cell) for cell in cells]
    scalar_visits = method.stats.node_visits
    assert [int(v) for v in batch] == [int(v) for v in scalar]
    assert batch_visits < scalar_visits


def test_basic_ddc_batch_never_visits_more():
    data = clustered((64, 64), clusters=3, points_per_cluster=60, seed=22)
    method = build_method("basic-ddc", data)
    cells = query_stream((64, 64), 64, locality="zipf", seed=23)
    method.stats.reset()
    method.prefix_sum_many(cells)
    batch_visits = method.stats.node_visits
    method.stats.reset()
    for cell in cells:
        method.prefix_sum(cell)
    assert batch_visits <= method.stats.node_visits


def test_ddc_add_many_zero_batch_allocates_nothing():
    method = method_class("ddc")((8, 8))
    method.add_many([((2, 2), 5), ((2, 2), -5)])
    assert method.memory_cells() == 0
    method.add_many([])
    assert method.memory_cells() == 0


# ----------------------------------------------------------------------
# Secondary structures: shared descents and bulk upserts
# ----------------------------------------------------------------------


def test_bc_tree_batch_ops():
    rng = np.random.default_rng(30)
    values = [int(rng.integers(-9, 10)) for _ in range(200)]
    tree = BcTree.from_values(values, fanout=4)
    indices = [int(rng.integers(0, 200)) for _ in range(40)]
    indices += indices[:5]
    assert tree.prefix_sum_many(indices) == [tree.prefix_sum(i) for i in indices]
    tree.stats.reset()
    tree.prefix_sum_many(indices)
    batch_visits = tree.stats.node_visits
    tree.stats.reset()
    for index in indices:
        tree.prefix_sum(index)
    assert batch_visits < tree.stats.node_visits
    updates = [(int(rng.integers(0, 200)), int(rng.integers(-5, 6))) for _ in range(30)]
    expected = list(values)
    for index, delta in updates:
        expected[index] += delta
    tree.add_many(updates)
    tree.validate()
    assert tree.to_list() == expected


def test_keyed_bc_tree_batch_ops():
    rng = np.random.default_rng(31)
    keys = sorted(rng.choice(1000, size=150, replace=False).tolist())
    pairs = [(int(key), int(rng.integers(-9, 10))) for key in keys]
    tree = KeyedBcTree.from_items(pairs, fanout=4)
    probes = [int(rng.integers(0, 1100)) for _ in range(50)] + [keys[0], keys[-1]]
    assert tree.prefix_sum_many(probes) == [tree.prefix_sum(k) for k in probes]
    # Bulk upsert with mostly-new keys forces multi-way splits and
    # possibly several levels of root growth.
    upserts = [(int(rng.integers(0, 5000)), int(rng.integers(-5, 6))) for _ in range(300)]
    reference = dict(pairs)
    for key, delta in upserts:
        reference[key] = reference.get(key, 0) + delta
    tree.add_many(upserts)
    tree.validate()
    stored = dict(tree.items())
    assert {k: v for k, v in stored.items() if v != 0} == {
        k: v for k, v in reference.items() if v != 0
    }
    assert tree.prefix_sum_many(probes) == [tree.prefix_sum(k) for k in probes]


def test_keyed_bc_tree_add_many_from_empty():
    tree = KeyedBcTree(fanout=4)
    tree.add_many([(5, 3), (1, 2), (5, 1), (9, 0)])
    tree.validate()
    assert dict(tree.items()) == {1: 2, 5: 4}
    assert tree.prefix_sum_many([0, 1, 5, 100]) == [0, 2, 6, 6]
    tree.add_many([(key, 1) for key in range(100)])
    tree.validate()
    assert tree.total() == 106


# ----------------------------------------------------------------------
# query_stream workload generator
# ----------------------------------------------------------------------


def test_query_stream_deterministic_and_bounded():
    for locality in ("uniform", "zipf"):
        first = query_stream((32, 48), 50, locality=locality, seed=7)
        second = query_stream((32, 48), 50, locality=locality, seed=7)
        assert first == second
        assert len(first) == 50
        for cell in first:
            assert 0 <= cell[0] < 32 and 0 <= cell[1] < 48
    assert query_stream((16,), 0) == []


def test_query_stream_zipf_is_clustered():
    zipf = query_stream((256, 256), 200, locality="zipf", clusters=3, seed=8)
    uniform = query_stream((256, 256), 200, locality="uniform", seed=8)
    blocks = lambda cells: {(x // 32, y // 32) for x, y in cells}  # noqa: E731
    # The zipf stream concentrates in a few 32x32 blocks around its
    # cluster centres; the uniform stream scatters over most of the 64.
    assert len(blocks(zipf)) < len(blocks(uniform)) / 2


def test_query_stream_rejects_unknown_locality():
    with pytest.raises(ConfigurationError):
        query_stream((8, 8), 4, locality="bogus")


# ----------------------------------------------------------------------
# REP006 lint rule
# ----------------------------------------------------------------------

_SCALAR_LOOP = '''__all__ = ["X"]
class X:
    def prefix_sum(self, cell):
        self.stats.cell_reads += 1
        return 0
    def prefix_sum_many(self, cells):
        self.stats.cell_reads += 1
        return [self.prefix_sum(c) for c in cells]
'''


def test_lint_rep006_flags_scalar_loop_in_core():
    from repro.analysis.lint import lint_source

    findings = lint_source(_SCALAR_LOOP, "src/repro/core/fixture.py")
    assert any(f.rule == "REP006" for f in findings)
    findings = lint_source(_SCALAR_LOOP, "src/repro/methods/fixture.py")
    assert any(f.rule == "REP006" for f in findings)


def test_lint_rep006_exemptions():
    from repro.analysis.lint import lint_source

    # The base-class defaults are the sanctioned fallback.
    assert not any(
        f.rule == "REP006"
        for f in lint_source(_SCALAR_LOOP, "src/repro/methods/base.py")
    )
    # Code outside core/methods is out of scope.
    assert not any(
        f.rule == "REP006"
        for f in lint_source(_SCALAR_LOOP, "src/repro/olap/fixture.py")
    )
    # An explanatory noqa suppresses a deliberate scalar fallback.
    suppressed = _SCALAR_LOOP.replace(
        "for c in cells]", "for c in cells]  # noqa: REP006"
    )
    assert not any(
        f.rule == "REP006"
        for f in lint_source(suppressed, "src/repro/core/fixture.py")
    )


def test_library_sources_pass_rep006():
    import pathlib

    from repro import methods

    from repro.analysis.lint import lint_paths

    src = pathlib.Path(methods.__file__).parent.parent
    findings = [f for f in lint_paths([src]) if f.rule == "REP006"]
    assert findings == []
