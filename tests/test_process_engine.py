"""Tests for the process executor: shared-memory slabs, delta shipping,
seqlock reads, and worker-kill recovery.

The load-bearing properties:

* a process-mode engine — any shard count, including one that leaves
  an uneven last shard — answers cell-for-cell identically to the
  unsharded structure, through the parent-side delta buffer, the
  pipelined ship/ack window, and the zero-copy seqlock read path;
* SIGKILLing a worker never corrupts an answer: state lives in the
  shared slabs plus the parent's ledger, so recovery is exact, and the
  one unrecoverable window (death mid-apply) leaves its shard failed —
  every later read, write and fence raises instead of serving a wrong
  sum;
* ``close()`` leaves no worker process and no shared-memory segment.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.engine import ShardedEngine, ShardPlan, ShardSlabStore
from repro.engine.shm import HEADER_APPLIED, HEADER_SEQ
from repro.exceptions import ConfigurationError, WorkerCrashedError
from repro.methods import build_method
from repro.workloads import RangeQuery, clustered, read_write_stream

from .test_engine_stateful import _shm_entries

SHAPE = (18, 9)


def _replay(target, events):
    reads = []
    for event in events:
        if isinstance(event, RangeQuery):
            reads.append(int(target.range_sum(event.low, event.high)))
        else:
            target.add(event.cell, event.delta)
    return reads


def _live_workers() -> list[str]:
    """Names of the shard-worker child processes still alive."""
    return [
        child.name
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-shard-worker-")
    ]


def _process_engine(data, shards, **kwargs):
    return ShardedEngine.from_array(
        data, shards=shards, executor="process", **kwargs
    )


class TestProcessEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_stream_matches_unsharded(self, shards):
        """K slab-backed shards == unsharded DDC under a mixed stream
        (K=7 leaves an uneven last shard on an 18-row cube)."""
        data = clustered(SHAPE, seed=21)
        events = read_write_stream(
            SHAPE, 160, mix=0.7, locality="zipf", seed=22
        )
        baseline = build_method("ddc", data)
        with _process_engine(data, shards) as engine:
            assert _replay(engine, events) == _replay(baseline, events)

    def test_pooled_fanout_matches_sequential(self):
        data = clustered(SHAPE, seed=25)
        events = read_write_stream(
            SHAPE, 120, mix=0.8, locality="zipf", seed=26
        )
        with ShardedEngine.from_array(data, shards=4) as serial:
            expected = _replay(serial, events)
        with _process_engine(data, 4, workers=2) as pooled:
            assert _replay(pooled, events) == expected

    def test_query_update_query_through_delta_shipping(self):
        """Reads stay exact at every stage of a delta's life: buffered
        parent-side, shipped-but-unacknowledged, and applied."""
        data = clustered(SHAPE, seed=27)
        reference = data.astype(np.int64).copy()
        with _process_engine(data, 2) as engine:
            pool = engine.process_pool

            def check():
                assert int(engine.range_sum((0, 0), (17, 8))) == int(
                    reference.sum()
                )
                assert int(engine.range_sum((3, 1), (12, 6))) == int(
                    reference[3:13, 1:7].sum()
                )

            check()
            # A handful of writes: fewer than ship_threshold, so they sit
            # in the parent-side buffer — reads must fold them in.
            for step in range(pool.ship_threshold - 1):
                cell = (step % SHAPE[0], (2 * step) % SHAPE[1])
                engine.add(cell, 3)
                reference[cell] += 3
            assert any(
                pool.pending_writes(shard) for shard in range(pool.store.count)
            )
            check()
            # Push past the threshold: the batch ships, acks stay
            # outstanding until something fences the lane.
            for step in range(3 * pool.ship_threshold):
                cell = ((5 * step) % SHAPE[0], step % SHAPE[1])
                engine.add(cell, -2)
                reference[cell] -= 2
            check()
            # And a flush drains everything to the slabs themselves.
            pool.flush()
            assert not any(
                pool.pending_writes(shard) for shard in range(pool.store.count)
            )
            check()


class TestKillRecovery:
    def test_kill_idle_worker_recovers_silently(self):
        data = clustered(SHAPE, seed=31)
        reference = data.astype(np.int64).copy()
        with _process_engine(data, 4) as engine:
            pool = engine.process_pool
            before = int(engine.range_sum((0, 0), (17, 8)))
            for shard in range(4):
                pool.kill_worker(shard)
            # Zero-copy reads never needed the worker — still exact, and
            # no respawn is even required until a write touches the lane.
            assert int(engine.range_sum((0, 0), (17, 8))) == before
            engine.add((1, 1), 9)
            reference[1, 1] += 9
            pool.flush()
            assert int(engine.range_sum((0, 0), (17, 8))) == int(
                reference.sum()
            )
            assert pool.pool_info()["restarts"] >= 1

    def test_kill_with_writes_in_flight_replays_ledger(self):
        """Buffered and shipped-but-unacked deltas both survive a
        SIGKILL: the parent replays its ledger into the slab."""
        data = clustered(SHAPE, seed=32)
        reference = data.astype(np.int64).copy()
        with _process_engine(data, 4) as engine:
            pool = engine.process_pool
            for step in range(40):
                cell = (step % SHAPE[0], (3 * step) % SHAPE[1])
                engine.add(cell, 5)
                reference[cell] += 5
            for shard in range(4):
                pool.kill_worker(shard)
            assert int(engine.range_sum((0, 0), (17, 8))) == int(
                reference.sum()
            )
            assert int(engine.range_sum((2, 2), (16, 7))) == int(
                reference[2:17, 2:8].sum()
            )
            # Writes keep flowing after the respawn.
            engine.add((9, 4), 11)
            reference[9, 4] += 11
            assert int(engine.range_sum((0, 0), (17, 8))) == int(
                reference.sum()
            )

    def test_torn_batch_surfaces_worker_crashed(self):
        """A worker dead mid-apply (odd seqlock) cannot be replayed —
        the fence must raise instead of serving a torn slab."""
        data = clustered(SHAPE, seed=33)
        with _process_engine(data, 1) as engine:
            pool = engine.process_pool
            engine.add((0, 0), 7)
            pool.flush()
            pool.kill_worker(0)
            header = pool.store.header(0)
            header[HEADER_SEQ] += 1  # simulate death mid-apply
            pool._posted[0] += 1
            pool._ledgers[0].append((pool._posted[0], [((0, 0), 1)]))
            lane = pool._lanes[0]
            lane.pending = 1
            with pytest.raises(WorkerCrashedError):
                pool.fence(0)
            # The abandon evened the seqlock and dropped the ledger, but
            # the slab misses the torn batch: the shard stays failed.
            assert int(header[HEADER_SEQ]) % 2 == 0
            assert not pool._ledgers[0]
            with pytest.raises(WorkerCrashedError):
                engine.range_sum((0, 0), (0, 0))

    def test_torn_batch_is_sticky(self):
        """A worker SIGKILLed inside ``slab_apply_deltas``: stopped with
        a shipped batch in its pipe, its shard's seqlock forced odd, then
        killed.  The next call on the shard raises, and so does every
        later read, write and fence on it, where a gather would miss the
        torn batch and answer a wrong sum as if it were exact.  The other
        shard keeps answering exactly."""
        data = np.ones((8, 8), dtype=np.int64)
        with _process_engine(data, 2, workers=2, cache_size=0) as engine:
            pool = engine.process_pool
            pid = pool.pool_info()["lanes"][0]["pid"]
            os.kill(pid, signal.SIGSTOP)
            _wait_stopped(pid)
            for step in range(pool.ship_threshold):  # one shipped batch
                engine.add((step % 4, step // 4), 1)
            assert pool.pool_info()["lanes"][0]["pending_acks"] == 1
            pool.store.header(0)[HEADER_SEQ] += 1  # the apply had begun
            assert pool.kill_worker(0)
            for _ in range(2):
                with pytest.raises(WorkerCrashedError, match="torn"):
                    engine.range_sum((0, 0), (7, 7))
            with pytest.raises(WorkerCrashedError, match="torn"):
                engine.range_sum_many([((0, 0), (3, 7)), ((0, 0), (0, 0))])
            with pytest.raises(WorkerCrashedError, match="torn"):
                engine.add((1, 1), 1)
            with pytest.raises(WorkerCrashedError, match="torn"):
                pool.fence(0)
            assert engine.range_sum((4, 0), (7, 7)) == 32
            engine.add((5, 5), 2)
            assert engine.range_sum((4, 0), (7, 7)) == 34

    def test_kills_between_reads_stay_exact(self):
        """A SIGKILL before every read and between writes: reads gather
        off the parent's slab mapping without the worker, the next write
        respawns it, and every answer stays exact."""
        data = clustered(SHAPE, seed=34)
        reference = data.astype(np.int64).copy()
        queries = [
            ((0, 0), (17, 8)),
            ((1, 1), (16, 7)),
            ((4, 0), (13, 8)),
            ((0, 2), (17, 6)),
        ]
        with _process_engine(data, 4, workers=4) as engine:
            pool = engine.process_pool
            for step, (low, high) in enumerate(queries * 3):
                shard = step % 4
                assert pool.kill_worker(shard)
                box = tuple(slice(a, b + 1) for a, b in zip(low, high))
                assert int(engine.range_sum(low, high)) == int(reference[box].sum())
                # One shipped batch on the dead lane respawns its worker.
                row = engine.plan.spans[shard].start
                for write in range(pool.ship_threshold):
                    cell = (row, write % SHAPE[1])
                    engine.add(cell, step + 1)
                    reference[cell] += step + 1
            assert pool.pool_info()["restarts"] == 12


def _wait_stopped(pid: int) -> None:
    """Return once ``pid`` is in the stopped state (Linux ``/proc``)."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        with open(f"/proc/{pid}/stat") as handle:
            if handle.read().rsplit(")", 1)[1].split()[0] == "T":
                return
        time.sleep(0.001)
    raise AssertionError(f"worker {pid} did not stop")


class TestSlabStore:
    def test_load_and_direct_reads_match_numpy(self):
        data = clustered(SHAPE, seed=41).astype(np.int64)
        plan = ShardPlan(SHAPE, 3)
        store = ShardSlabStore(plan)
        try:
            store.load_array(data)
            for index in range(plan.count):
                local = data[plan.slab(index)]
                shape = plan.shard_shape(index)
                assert store.range_sum(
                    index, (0,) * len(shape), tuple(s - 1 for s in shape)
                ) == int(local.sum())
        finally:
            store.destroy()

    def test_apply_deltas_and_header_roundtrip(self):
        plan = ShardPlan((8, 8), 2)
        store = ShardSlabStore(plan)
        try:
            store.apply_deltas(0, [((1, 1), 5), ((3, 0), -2)])
            assert store.range_sum(0, (0, 0), (3, 7)) == 3
            header = store.header(0)
            assert int(header[HEADER_SEQ]) == 0
            assert int(header[HEADER_APPLIED]) == 0
        finally:
            store.destroy()
        store.destroy()  # idempotent


class TestExecutorSelection:
    def test_single_shard_plan_runs_serial(self):
        """shards == 1 has nothing to fan out and runs on the serial
        executor; workers requested without the process executor are
        refused rather than ignored."""
        data = clustered((8, 8), seed=51)
        with ShardedEngine.from_array(data, shards=1) as engine:
            assert engine.executor_kind == "serial"
            assert engine.process_pool is None
        with pytest.raises(ConfigurationError, match='executor="process"'):
            ShardedEngine.from_array(data, shards=1, workers=4)


class TestPoolIntrospection:
    def test_pool_info_shape(self):
        data = clustered(SHAPE, seed=61)
        with _process_engine(data, 4, workers=2) as engine:
            info = engine.pool_info()
            assert info["executor"] == "process"
            assert info["workers"] == 2
            assert info["alive"] == 2
            assert len(info["lanes"]) == 2
            owned = sorted(
                shard for lane in info["lanes"] for shard in lane["shards"]
            )
            assert owned == [0, 1, 2, 3]
            for lane in info["lanes"]:
                assert lane["alive"]
                assert lane["pending_acks"] == 0
        # Serial engines have no pool.
        with ShardedEngine.from_array(data, shards=2) as engine:
            assert engine.pool_info() is None


class TestOneThread:
    """The pool's processes and segments end with the engine: after
    ``close()`` no worker and no shared-memory segment is left."""

    def test_close_leaves_no_worker_and_no_segment(self):
        """Writes, a SIGKILL, a respawn, then ``close()``: no
        ``repro-shard-worker-*`` child and no new ``/dev/shm`` entry
        survive."""
        shm_before = _shm_entries()
        data = clustered(SHAPE, seed=38)
        engine = _process_engine(data, 4, workers=2)
        try:
            pool = engine.process_pool
            for step in range(40):
                engine.add((step % SHAPE[0], (5 * step) % SHAPE[1]), 2)
            assert pool.kill_worker(0)
            for step in range(20):
                engine.add((step % SHAPE[0], step % SHAPE[1]), -1)
            pool.flush()
            info = pool.pool_info()
            assert info["restarts"] >= 1
            assert info["alive"] == info["workers"]
        finally:
            engine.close()
        assert _live_workers() == []
        assert _shm_entries() <= shm_before

    def test_shutdown_does_not_respawn_a_dead_worker(self):
        """A buffered write, a SIGKILL, then ``close()``: the dead lane
        is not respawned only to be stopped, and nothing survives."""
        shm_before = _shm_entries()
        data = clustered(SHAPE, seed=40)
        engine = _process_engine(data, 2)
        try:
            pool = engine.process_pool
            engine.add((0, 0), 3)
            assert pool.pool_info()["buffered_deltas"] == 1
            assert pool.kill_worker(0)
        finally:
            engine.close()
        assert pool.pool_info()["restarts"] == 0
        assert _live_workers() == []
        assert _shm_entries() <= shm_before
