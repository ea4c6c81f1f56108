"""Stateful differential test of the engine against a dense numpy oracle.

One hypothesis state machine drives a small :class:`ShardedEngine`
through arbitrary interleavings of scalar and batched reads and writes
— and, in process mode, SIGKILLs of pool workers — and checks every
answer against a plain ``ndarray``.  It runs for both executors and for
a slab method and a pointer method, so a change to the read path, the
cache, the delta ledger or worker recovery that drops or double-counts
a delta fails here whichever layer it hides in.

Sized for the PR path (a few seconds); ``REPRO_FUZZ_SCALE`` multiplies
both the number of programs and their length for the nightly soak.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.engine import ShardedEngine

_SCALE = max(1, int(os.environ.get("REPRO_FUZZ_SCALE", "1")))

SHAPE = (12, 9)
SHARDS = 3

cells = st.tuples(*(st.integers(0, extent - 1) for extent in SHAPE))
deltas = st.integers(-9, 9)
boxes = st.tuples(cells, cells).map(
    lambda pair: (
        tuple(map(min, *pair)),
        tuple(map(max, *pair)),
    )
)


def _shm_entries() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


class EngineMachine(RuleBasedStateMachine):
    """The engine under test beside the array it must always equal."""

    def __init__(self, executor: str, method: str) -> None:
        super().__init__()
        self.shm_before = _shm_entries()
        self.oracle = np.random.default_rng(22).integers(-9, 10, size=SHAPE)
        # A cache this small is hit, invalidated and evicted within one
        # short program.
        self.engine = ShardedEngine.from_array(
            self.oracle,
            shards=SHARDS,
            method=method,
            executor=executor,
            workers=2 if executor == "process" else None,
            cache_size=4,
        )
        #: Recently read ranges, for ``reread``.
        self.read: list = []

    def expected(self, box) -> int:
        low, high = box
        region = tuple(slice(lo, hi + 1) for lo, hi in zip(low, high))
        return int(self.oracle[region].sum())

    @rule(cell=cells, delta=deltas)
    def add(self, cell, delta):
        self.engine.add(cell, delta)
        self.oracle[cell] += delta

    @rule(updates=st.lists(st.tuples(cells, deltas), max_size=24))
    def add_many(self, updates):
        self.engine.add_many(updates)
        for cell, delta in updates:
            self.oracle[cell] += delta

    @rule(box=boxes)
    def range_sum(self, box):
        assert int(self.engine.range_sum(*box)) == self.expected(box)
        self.remember([box])

    @rule(batch=st.lists(boxes, max_size=24))
    def range_sum_many(self, batch):
        self.check_batch(batch)
        self.remember(batch)

    @precondition(lambda self: self.read)
    @rule(data=st.data())
    def reread(self, data):
        """Re-issue ranges read before, so lookups find entries whose
        stamps writes have moved past: revalidated hits meet the oracle."""
        box = data.draw(st.sampled_from(self.read))
        assert int(self.engine.range_sum(*box)) == self.expected(box)
        self.check_batch(data.draw(st.lists(st.sampled_from(self.read), max_size=6)))

    def remember(self, batch):
        # As many as the cache holds, so a re-read can still find them.
        self.read = (self.read + list(batch))[-4:]

    def check_batch(self, batch):
        values = self.engine.range_sum_many(batch)
        assert [int(value) for value in values] == [
            self.expected(box) for box in batch
        ]

    @precondition(lambda self: self.engine.process_pool is not None)
    @rule(shard=st.integers(0, SHARDS - 1))
    def kill_worker(self, shard):
        pool = self.engine.process_pool
        # Settle in-flight applies first: a SIGKILL landing inside one
        # is the documented unrecoverable window (WorkerCrashedError),
        # not the exact recovery this machine checks.
        pool.flush()
        pool.kill_worker(shard)

    def teardown(self):
        self.engine.close()
        assert _shm_entries() <= self.shm_before


@pytest.mark.parametrize("method", ["vector", "ddc"])
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_engine_tracks_dense_oracle(executor, method):
    run_state_machine_as_test(
        lambda: EngineMachine(executor, method),
        settings=settings(
            max_examples=40 * _SCALE,
            stateful_step_count=30 * _SCALE,
            deadline=None,
        ),
    )
