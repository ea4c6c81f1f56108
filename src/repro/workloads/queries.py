"""Query and update workloads for the benchmark harness.

The paper's cost model is worst-case; the harness measures both the
worst case (origin-corner updates, full-extent prefix queries) and
averaged random workloads so the *shape* comparison of Figure 1 can be
validated empirically on real structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..geometry import Cell, normalize_shape

__all__ = [
    "RangeQuery",
    "PointUpdate",
    "random_ranges",
    "prefix_cells",
    "query_stream",
    "random_updates",
    "worst_case_update",
    "hot_region_updates",
    "interleaved",
    "read_write_stream",
    "straddling_ranges",
]


@dataclass(frozen=True)
class RangeQuery:
    """One inclusive range query."""

    low: Cell
    high: Cell


@dataclass(frozen=True)
class PointUpdate:
    """One point update (delta semantics)."""

    cell: Cell
    delta: int


def random_ranges(
    shape: Sequence[int],
    count: int,
    selectivity: float | None = None,
    seed: int = 0,
) -> list[RangeQuery]:
    """Random inclusive ranges, optionally of fixed per-dim selectivity.

    With ``selectivity`` given, every range spans that fraction of each
    dimension (clamped to at least one cell) at a random position;
    otherwise both corners are uniform.
    """
    shape = normalize_shape(shape)
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        low = []
        high = []
        for size in shape:
            if selectivity is None:
                a = int(rng.integers(0, size))
                b = int(rng.integers(0, size))
                lo, hi = min(a, b), max(a, b)
            else:
                extent = max(1, int(round(selectivity * size)))
                lo = int(rng.integers(0, size - extent + 1))
                hi = lo + extent - 1
            low.append(lo)
            high.append(hi)
        queries.append(RangeQuery(tuple(low), tuple(high)))
    return queries


def prefix_cells(shape: Sequence[int], count: int, seed: int = 0) -> list[Cell]:
    """Random target cells for corner-anchored prefix queries."""
    shape = normalize_shape(shape)
    rng = np.random.default_rng(seed)
    return [
        tuple(int(rng.integers(0, size)) for size in shape) for _ in range(count)
    ]


def query_stream(
    shape: Sequence[int],
    count: int,
    locality: str = "uniform",
    clusters: int = 4,
    spread: float = 0.05,
    zipf_exponent: float = 1.1,
    seed: int = 0,
) -> list[Cell]:
    """Prefix-query target cells with controllable locality.

    The batch-query benchmark sweeps this knob: path-sharing traversal
    gains little on scattered queries and a lot on clustered ones, so
    the stream models both extremes.

    * ``"uniform"`` — iid uniform cells (no locality; every descent
      path is roughly equally likely).
    * ``"zipf"`` — ``clusters`` random centres with Zipf-distributed
      popularity (exponent ``zipf_exponent``); each query picks a
      centre and lands normally around it with per-dimension standard
      deviation ``spread * size``.  Models an OLAP dashboard refresh:
      many queries probing the same few hot regions.
    """
    shape = normalize_shape(shape)
    rng = np.random.default_rng(seed)
    if locality == "uniform":
        return [
            tuple(int(rng.integers(0, size)) for size in shape)
            for _ in range(count)
        ]
    if locality != "zipf":
        raise ConfigurationError(f"unknown locality {locality!r}")
    clusters = max(1, clusters)
    centres = [
        tuple(int(rng.integers(0, size)) for size in shape) for _ in range(clusters)
    ]
    weights = np.array([1.0 / (rank + 1) ** zipf_exponent for rank in range(clusters)])
    weights /= weights.sum()
    cells = []
    for _ in range(count):
        centre = centres[int(rng.choice(clusters, p=weights))]
        cell = tuple(
            int(np.clip(round(rng.normal(c, max(1.0, spread * size))), 0, size - 1))
            for c, size in zip(centre, shape)
        )
        cells.append(cell)
    return cells


def random_updates(
    shape: Sequence[int],
    count: int,
    magnitude: int = 10,
    seed: int = 0,
) -> list[PointUpdate]:
    """Uniformly random point updates with non-zero deltas."""
    shape = normalize_shape(shape)
    rng = np.random.default_rng(seed)
    updates = []
    for _ in range(count):
        cell = tuple(int(rng.integers(0, size)) for size in shape)
        delta = 0
        while delta == 0:
            delta = int(rng.integers(-magnitude, magnitude + 1))
        updates.append(PointUpdate(cell, delta))
    return updates


def worst_case_update(shape: Sequence[int]) -> PointUpdate:
    """The paper's worst case: updating ``A[0, ..., 0]`` (Figure 5)."""
    shape = normalize_shape(shape)
    return PointUpdate((0,) * len(shape), 1)


def hot_region_updates(
    shape: Sequence[int],
    count: int,
    hot_fraction: float = 0.1,
    hot_probability: float = 0.9,
    magnitude: int = 10,
    seed: int = 0,
) -> list[PointUpdate]:
    """Skewed updates: most deltas land in a small origin-corner region.

    Models the "Internet commerce" scenario — a minority of cells (the
    current trading day, the popular products) receive the bulk of the
    update traffic.
    """
    shape = normalize_shape(shape)
    rng = np.random.default_rng(seed)
    hot_extent = [max(1, int(round(hot_fraction * size))) for size in shape]
    updates = []
    for _ in range(count):
        limits = hot_extent if rng.random() < hot_probability else list(shape)
        cell = tuple(int(rng.integers(0, limit)) for limit in limits)
        delta = 0
        while delta == 0:
            delta = int(rng.integers(-magnitude, magnitude + 1))
        updates.append(PointUpdate(cell, delta))
    return updates


def read_write_stream(
    shape: Sequence[int],
    count: int,
    mix: float = 0.9,
    locality: str = "uniform",
    pool: int = 32,
    selectivity: float = 0.1,
    clusters: int = 4,
    spread: float = 0.05,
    zipf_exponent: float = 1.1,
    magnitude: int = 10,
    seed: int = 0,
) -> list[RangeQuery | PointUpdate]:
    """A serving-style event stream: ``mix`` reads, ``1 - mix`` writes.

    Models the traffic the sharded engine serves: a dashboard fleet
    re-issuing the same analytical range queries (reads drawn from a
    finite ``pool`` of distinct ranges, so hot queries genuinely repeat
    and a result cache has something to hit) interleaved with point
    updates trickling in from the transactional side.

    * ``mix`` — fraction of events that are reads (``RangeQuery``); the
      rest are writes (``PointUpdate`` with non-zero delta).
    * ``locality`` — ``"uniform"`` scatters both the query pool and the
      writes uniformly; ``"zipf"`` anchors the pool at ``clusters``
      centres with Zipf-distributed popularity (exponent
      ``zipf_exponent``), ranks the pool itself by Zipf weights (the
      dashboard's top queries dominate), and lands writes near the same
      centres with per-dimension spread ``spread * size``.
    * ``pool`` — number of distinct read queries; ``selectivity`` —
      per-dimension fraction of the cube each pool range spans.

    The result is a list (not a generator) so a benchmark can replay the
    identical stream against several engine configurations.
    """
    shape = normalize_shape(shape)
    if not 0.0 <= mix <= 1.0:
        raise ConfigurationError(f"mix must be within [0, 1], got {mix}")
    if locality not in ("uniform", "zipf"):
        raise ConfigurationError(f"unknown locality {locality!r}")
    if pool < 1:
        raise ConfigurationError(f"pool must be >= 1, got {pool}")
    rng = np.random.default_rng(seed)

    if locality == "zipf":
        clusters = max(1, clusters)
        centres = [
            tuple(int(rng.integers(0, size)) for size in shape)
            for _ in range(clusters)
        ]
        centre_weights = np.array(
            [1.0 / (rank + 1) ** zipf_exponent for rank in range(clusters)]
        )
        centre_weights /= centre_weights.sum()

    def _near_centre() -> Cell:
        centre = centres[int(rng.choice(clusters, p=centre_weights))]
        return tuple(
            int(np.clip(round(rng.normal(c, max(1.0, spread * size))), 0, size - 1))
            for c, size in zip(centre, shape)
        )

    read_pool: list[RangeQuery] = []
    for _ in range(pool):
        anchor = (
            _near_centre()
            if locality == "zipf"
            else tuple(int(rng.integers(0, size)) for size in shape)
        )
        low = []
        high = []
        for position, size in zip(anchor, shape):
            extent = max(1, int(round(selectivity * size)))
            lo = int(np.clip(position - extent // 2, 0, size - extent))
            low.append(lo)
            high.append(lo + extent - 1)
        read_pool.append(RangeQuery(tuple(low), tuple(high)))

    if locality == "zipf":
        pool_weights = np.array(
            [1.0 / (rank + 1) ** zipf_exponent for rank in range(pool)]
        )
        pool_weights /= pool_weights.sum()
    else:
        pool_weights = np.full(pool, 1.0 / pool)

    events: list[RangeQuery | PointUpdate] = []
    for _ in range(count):
        if rng.random() < mix:
            events.append(read_pool[int(rng.choice(pool, p=pool_weights))])
        else:
            cell = (
                _near_centre()
                if locality == "zipf"
                else tuple(int(rng.integers(0, size)) for size in shape)
            )
            delta = 0
            while delta == 0:
                delta = int(rng.integers(-magnitude, magnitude + 1))
            events.append(PointUpdate(cell, delta))
    return events


def straddling_ranges(
    shape: Sequence[int],
    count: int,
    shards: int,
    seed: int = 0,
) -> list[RangeQuery]:
    """Ranges guaranteed to cross at least one shard-slab boundary.

    The adversarial read workload for the engine's fan-out: a range
    confined to one slab reads one shard, so a test over single-shard
    ranges would never exercise the decomposition into per-shard
    sub-ranges and the summing of their answers.  Boundaries follow the
    engine's ``floor(i·n/K)`` slab rule, so every returned range overlaps at
    least two shards of a K-shard engine over ``shape``.
    """
    shape = normalize_shape(shape)
    leading = shape[0]
    if not 2 <= shards <= leading:
        raise ConfigurationError(
            f"straddling_ranges needs 2 <= shards <= {leading}, got {shards}"
        )
    boundaries = [leading * i // shards for i in range(1, shards)]
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        boundary = int(boundaries[int(rng.integers(0, len(boundaries)))])
        lo0 = int(rng.integers(0, boundary))
        hi0 = int(rng.integers(boundary, leading))
        low = [lo0]
        high = [hi0]
        for size in shape[1:]:
            a = int(rng.integers(0, size))
            b = int(rng.integers(0, size))
            low.append(min(a, b))
            high.append(max(a, b))
        queries.append(RangeQuery(tuple(low), tuple(high)))
    return queries


def interleaved(
    queries: Sequence[RangeQuery],
    updates: Sequence[PointUpdate],
    query_fraction: float = 0.5,
    seed: int = 0,
) -> Iterator[RangeQuery | PointUpdate]:
    """Mixed read/write stream with the given read fraction.

    The "what-if" workload of the introduction: analysts interleave
    hypothetical updates with analytical queries and expect both to be
    interactive.
    """
    rng = np.random.default_rng(seed)
    query_iter = iter(queries)
    update_iter = iter(updates)
    pending_queries = len(queries)
    pending_updates = len(updates)
    while pending_queries or pending_updates:
        take_query = pending_queries and (
            not pending_updates or rng.random() < query_fraction
        )
        if take_query:
            yield next(query_iter)
            pending_queries -= 1
        else:
            yield next(update_iter)
            pending_updates -= 1
