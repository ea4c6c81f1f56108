"""Seeded input generator: the program only ever sees what this makes.

Cube contents come from ``repro.workloads.clustered`` (``repro serve``
builds its cube the same way, so the oracle can rebuild it); ranges,
cells, non-zero integer deltas and zipf picks come from
numpy generators keyed ``(seed, workload, stream)``.  The same seed
gives the same inputs, call for call.
"""

from __future__ import annotations

import numpy as np

from spec import WORKLOADS, Workload

READ, WRITE = 0, 1

#: Stream ids under one (seed, workload) key.
_POOL, _WARM, _BACKGROUND, _ROUND0 = 0, 1, 2, 16

ZIPF_EXPONENT = 1.1


class Inputs:
    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self._key = [w.name for w in WORKLOADS].index(workload.name)
        self._sizes = np.asarray(workload.shape, dtype=np.int64)
        self.pool: list[tuple] = []
        if workload.pool:
            self.pool = self._make_pool()
            weights = 1.0 / np.arange(1, workload.pool + 1) ** ZIPF_EXPONENT
            self._zipf = weights / weights.sum()

    def _rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self._key, stream])

    def cube(self) -> np.ndarray:
        from repro.workloads import clustered

        cube = clustered(self.workload.shape, seed=self.seed)
        if self.workload.dense_background:
            cube = cube + self._rng(_BACKGROUND).integers(1, 10, size=cube.shape)
        return cube

    def _make_pool(self) -> list[tuple]:
        """Fixed-extent ranges (``pool_frac`` of each dimension)."""
        rng = self._rng(_POOL)
        extent = np.maximum(1, (self._sizes * self.workload.pool_frac).astype(np.int64))
        low = rng.integers(0, self._sizes - extent + 1, size=(self.workload.pool, len(extent)))
        high = low + extent - 1
        return [(tuple(a), tuple(b)) for a, b in zip(low.tolist(), high.tolist())]

    def _ranges(self, rng: np.random.Generator, count: int) -> list[tuple]:
        if self.pool:
            picks = rng.choice(len(self.pool), size=count, p=self._zipf)
            return [self.pool[i] for i in picks.tolist()]
        dims = len(self._sizes)
        a = rng.integers(0, self._sizes, size=(count, dims))
        b = rng.integers(0, self._sizes, size=(count, dims))
        low, high = np.minimum(a, b).tolist(), np.maximum(a, b).tolist()
        return [(tuple(lo), tuple(hi)) for lo, hi in zip(low, high)]

    def _updates(self, rng: np.random.Generator, count: int) -> list[tuple]:
        cells = rng.integers(0, self._sizes, size=(count, len(self._sizes))).tolist()
        deltas = rng.integers(1, 10, size=count) * rng.choice((-1, 1), size=count)
        return [(tuple(cell), delta) for cell, delta in zip(cells, deltas.tolist())]

    def warm_calls(self) -> list[tuple]:
        return self._calls(self._rng(_WARM), self.workload.warm_calls)

    def round_calls(self, round_index: int) -> list[tuple]:
        return self._calls(self._rng(_ROUND0 + round_index), self.workload.round_calls)

    def _calls(self, rng: np.random.Generator, count: int) -> list[tuple]:
        """``(kind, args)`` per call; ``fn(*args)`` is the program call."""
        batch = self.workload.batch
        if batch > 1:  # alternate a read batch and a write batch
            calls = []
            for index in range(count):
                if index % 2 == 0:
                    calls.append((READ, (self._ranges(rng, batch),)))
                else:
                    calls.append((WRITE, (self._updates(rng, batch),)))
            return calls
        is_write = (rng.random(count) >= self.workload.read_share).tolist()
        ranges = self._ranges(rng, count)
        updates = self._updates(rng, count)
        return [
            (WRITE, updates[i]) if is_write[i] else (READ, ranges[i])
            for i in range(count)
        ]

    def arrivals(self, count: int) -> np.ndarray:
        """Open-loop due times in seconds from the round's start, evenly
        spaced at the workload's fixed rate.  (Poisson arrivals were
        tried: their bursts overlap requests inside the server, whose
        loop/pool-thread hand-off is bistable on a 2-core box — runs of
        one seed then differed by 40% in p50 and fourfold in p99.)"""
        return np.arange(1, count + 1) / self.workload.rate
