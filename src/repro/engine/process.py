"""Process-parallel shard writes over the shared-memory slab store.

Threads in one interpreter cannot overlap shard work — every DDC
descent is pure-python bytecode under the GIL — so the engine's only
parallel executor is this one, which moves every shard's write work
into a **persistent pool of worker processes** while the parent serves
reads straight off shared memory:

* each worker owns a fixed subset of shards (``shard % workers``) and
  attaches their prefix-sum slabs from the
  :class:`~repro.engine.shm.ShardSlabStore` at startup — zero-copy,
  built once at plan time;
* the engine reads every shard on the caller's thread through the
  same fan-out as in serial mode, because no read waits on a worker, so
  ``ResiliencePolicy`` deadlines, retries, circuit breakers, and the
  ``FaultInjector`` compose completely unchanged;
* writes ship as compact ``(cell, delta)`` tuples over the owning
  worker's pipe and are applied as suffix rectangles on the shared
  slab — the worker is the single writer for its shards, so deltas
  serialise without locks.  Shipments are **buffered and pipelined**:
  deltas accumulate parent-side and go out
  :data:`~ProcessExecutor.ship_threshold` at a time (one worker
  wake-up per batch instead of per write), and the ack is collected
  lazily by the next operation that touches the lane
  (:meth:`ProcessExecutor.fence` / :meth:`ProcessExecutor.post` /
  :meth:`ProcessExecutor.flush`), hiding the worker's wake-up latency
  behind the parent's own work;
* reads are **zero-copy gathers on the parent's own mapping** of the
  same slab and never wait for the worker: each shard's segment opens
  with a single-writer seqlock (see :mod:`repro.engine.shm`) that
  detects a torn gather, and the parent folds its own
  posted-but-unapplied deltas back into the result from a per-shard
  ledger — exact, because the parent is the only poster.  A pipe
  round-trip would cost more than the gather itself.  State lives in
  the shared slabs, **not** in the workers, so a SIGKILLed worker loses
  nothing: reads never needed it, and the next write or fence respawns
  the process, which reattaches and applies exactly.  Even
  pipelined writes in flight survive the kill — the parent's delta
  ledger holds every posted-but-unacknowledged batch, and once the
  worker is dead the parent (now the shard's only writer) replays the
  unapplied suffix straight into the slab.  The sole unrecoverable
  window is a kill *mid-apply*: the seqlock's odd count marks the
  slab as holding a torn batch, and that loss surfaces as
  :class:`~repro.exceptions.WorkerCrashedError` instead of serving
  wrong sums.

Failure semantics: a dead pipe surfaces as
:class:`~repro.exceptions.WorkerCrashedError`, which the engine's
fan-out treats like any other shard failure — retried within
the deadline budget, recorded by the shard's breaker, degraded per
policy.  Worker-side *operation* errors (a malformed op) come back as
:class:`~repro.exceptions.StructureError` replies without killing the
worker — they indicate a library bug, not a flaky shard.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from collections import deque
from typing import Sequence

import numpy as np

from .. import geometry
from ..exceptions import ConfigurationError, StructureError, WorkerCrashedError
from ..methods.base import RangeSumMethod
from ..obs import NULL_OBS
from ..obs.clock import MonotonicClock
from ..obs.metrics import NULL_INSTRUMENT
from ..obs.remote import MetricsHarvester, WorkerMetricsShard, worker_metrics_layout
from . import shm

__all__ = ["ProcessExecutor", "ShmShardReplica"]


def _pool_worker_main(
    worker_index: int,
    manifests: list,
    owned: tuple,
    conn,
    telemetry=None,
) -> None:
    """Apply delta batches to this worker's shards (child process).

    One blocking request/reply loop per worker: the parent is the only
    sender, so no concurrency exists inside a worker and the slab math
    needs no locks.  Requests are ``(op, index, payload)``; replies are
    ``("ok", value)`` or ``("error", detail)``.  An unreadable pipe
    means the parent is gone and the loop exits.

    ``telemetry`` is the harvester's ``(layout, segment name)`` pair:
    when present the worker attaches its shared-memory metrics shard
    (see :mod:`repro.obs.remote`) and publishes apply timings and op
    tallies lock-free — the parent harvests them on demand, and they
    survive this process being SIGKILLed.
    """
    clock = MonotonicClock()  # noqa: REP008 — a pool worker is its own process with no injected obs; its apply timings feed the shm metrics shard (kept until the pool is decided)
    shard_metrics = None
    apply_seconds = apply_batch = None
    op_tallies = {}
    if telemetry is not None:
        layout, segment_name = telemetry
        try:
            shard_metrics = WorkerMetricsShard(layout, segment_name)
        except (FileNotFoundError, OSError):  # pragma: no cover - races teardown
            shard_metrics = None
    if shard_metrics is not None:
        apply_seconds = shard_metrics.histogram("repro_worker_apply_seconds")
        apply_batch = shard_metrics.histogram("repro_worker_apply_batch_updates")
        op_tallies = {
            op: shard_metrics.counter("repro_worker_ops_total", op=op)
            for op in ("apply", "ping")
        }
    segments = {}
    headers = {}
    views = {}
    for index in owned:
        segment, header, view = shm.attach_slab(manifests[index])
        segments[index] = segment
        headers[index] = header
        views[index] = view
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            op = message[0]
            if op == "stop":
                conn.send(("ok", None))
                break
            try:
                if op == "apply":
                    index, updates = message[1], message[2]
                    op_start = clock.now() if shard_metrics is not None else 0.0
                    # Single-writer seqlock: odd seq brackets the
                    # in-place suffix adds so the parent's zero-copy
                    # readers can detect (and retry around) a torn
                    # gather; ``applied`` tells them which posted
                    # batches the slab already includes.
                    header = headers[index]
                    header[shm.HEADER_SEQ] += 1
                    shm.slab_apply_deltas(views[index], updates)
                    header[shm.HEADER_APPLIED] += 1
                    header[shm.HEADER_SEQ] += 1
                    reply = len(updates)
                    if shard_metrics is not None:
                        apply_seconds.observe(clock.now() - op_start)
                        apply_batch.observe(float(len(updates)))
                        op_tallies["apply"].inc()
                elif op == "ping":
                    reply = worker_index
                    if shard_metrics is not None:
                        op_tallies["ping"].inc()
                else:
                    raise ConfigurationError(f"unknown worker op {op!r}")
                conn.send(("ok", reply))
            except Exception as error:  # noqa: BLE001 - reported to parent
                conn.send(("error", f"{type(error).__name__}: {error}"))
    finally:
        if shard_metrics is not None:
            shard_metrics.close()
        for segment in segments.values():
            try:
                segment.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass


def _fold_pending(values: list, queries: Sequence[tuple], batches) -> list:
    """Add the contribution of deltas that have not reached the slab.

    A point delta at ``cell`` contributes to a range sum exactly when
    the cell lies inside the query box, so the correction is O(pending
    deltas) per query — trivial next to a fence's worth of waiting.
    ``batches`` is an iterable of update lists (ledger entries and/or
    the parent-side buffer).
    """
    for position, (low, high) in enumerate(queries):
        extra = 0
        for updates in batches:
            for cell, delta in updates:
                inside = True
                for axis, coordinate in enumerate(cell):
                    if not low[axis] <= coordinate <= high[axis]:
                        inside = False
                        break
                if inside:
                    extra += delta
        if extra:
            values[position] += extra
    return values


class _Lane:
    """One worker process plus its command pipe."""

    __slots__ = ("worker_index", "owned", "process", "conn", "restarts", "pending")

    def __init__(self, worker_index: int, owned: tuple) -> None:
        self.worker_index = worker_index
        self.owned = owned
        self.process = None
        self.conn = None
        self.restarts = 0
        #: Pipelined sends whose acks have not been collected yet.
        self.pending = 0


class ProcessExecutor:
    """Persistent worker pool behind the shared-memory shard replicas.

    Exposes :meth:`write` / :meth:`read_many` (the slab traffic of
    :class:`ShmShardReplica`; a read is a seqlock gather on the caller's
    thread), :meth:`fence` / :meth:`flush`, :meth:`kill_worker` (the
    chaos harness's SIGKILL hook), :meth:`pool_info`, :meth:`harvest`
    and :meth:`shutdown`.  One thread owns the pool, as it owns the
    engine above it.

    Args:
        store: the engine's shared-memory slab store.
        workers: worker processes; ``None``/0 picks
            ``min(shards, cpu_count)``, and the pool never exceeds the
            shard count (an idle worker would own nothing).
        obs: optional observability facade — feeds the IPC round-trip
            histogram, the worker-restart counter, and pool gauges.
        start_method: multiprocessing start method; default prefers
            ``fork`` (instant start, inherited attachments) and falls
            back to the platform default.
        poll_interval: how often a blocked ack wait re-checks worker
            liveness, in seconds.
    """

    #: Max pipelined (unacknowledged) writes per lane before a
    #: :meth:`post` self-fences — bounds pipe growth on write bursts.
    pipeline_window = 64

    #: Buffered deltas per shard before :meth:`write` ships them to the
    #: owning worker in one message.  Shipping wakes the worker — on a
    #: busy box that preempts the parent for a full scheduling quantum
    #: — so the batch size trades one wake-up against a slightly longer
    #: ledger for readers to fold.
    ship_threshold = 16

    def __init__(
        self,
        store: shm.ShardSlabStore,
        workers: int | None = None,
        obs=None,
        start_method: str | None = None,
        poll_interval: float = 0.05,
    ) -> None:
        if store.count < 1:
            raise ConfigurationError("ProcessExecutor needs at least one shard")
        if workers is None or workers <= 0:
            workers = min(store.count, os.cpu_count() or 1)
        self.workers = max(1, min(workers, store.count))
        self.obs = obs if obs is not None else NULL_OBS
        self.store = store
        self._manifests = store.manifest()
        self._poll_interval = poll_interval
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
        self._ctx = multiprocessing.get_context(start_method)
        self._lanes = [
            _Lane(index, tuple(range(index, store.count, self.workers)))
            for index in range(self.workers)
        ]
        #: Per-shard ledger of posted-but-unapplied delta batches, as
        #: ``(batch number, updates)`` in posting order, plus the
        #: per-shard posted-batch counter.  The worker's ``applied``
        #: header counts the same batches from the other side, which is
        #: what lets :meth:`read_many` correct a gather without waiting.
        self._ledgers = [deque() for _ in range(store.count)]
        self._posted = [0] * store.count
        #: Per-shard deltas not yet shipped to the owning worker.  They
        #: never left the parent, so a worker crash cannot lose them —
        #: the respawned worker receives them with the next shipment.
        self._buffers: list[list] = [[] for _ in range(store.count)]
        #: Per-worker telemetry segments + parent-side merge state.  The
        #: harvester owns the segments (workers only attach), so a
        #: SIGKILLed worker's last-published slots stay harvestable and
        #: its respawn resumes the same slots.
        self._harvester = None
        if self.obs.enabled and getattr(self.obs, "remote_worker_metrics", False):
            self._harvester = MetricsHarvester(worker_metrics_layout(), self.workers)
        self._register_instruments()
        for lane in self._lanes:
            self._spawn(lane, initial=True)

    def _register_instruments(self) -> None:
        """Pre-create the pool's metric families.

        Routed through the same ``obs.enabled`` predicate the hot paths
        use: with ``NULL_OBS`` every ``_obs_*`` attribute is the shared
        :data:`~repro.obs.metrics.NULL_INSTRUMENT`, so disabled mode
        allocates no families at all (instrumented call sites keep
        their shape and no-op).
        """
        if not self.obs.enabled:
            self._obs_ipc_seconds = NULL_INSTRUMENT
            self._obs_restarts = NULL_INSTRUMENT
            self._obs_pool_workers = NULL_INSTRUMENT
            self._obs_pool_alive = NULL_INSTRUMENT
            self._obs_gather_by_worker = [NULL_INSTRUMENT] * self.workers
            self._obs_seqlock_rounds_by_worker = [NULL_INSTRUMENT] * self.workers
            self._obs_seqlock_retries_by_worker = [NULL_INSTRUMENT] * self.workers
            return
        metrics = self.obs.metrics
        self._obs_ipc_seconds = metrics.histogram(
            "repro_engine_ipc_seconds",
            "Parent-side latency of one worker IPC send, per op.",
            labels=("op",),
        )
        self._obs_restarts = metrics.counter(
            "repro_engine_worker_restarts_total",
            "Worker processes respawned after dying mid-service.",
            labels=("worker",),
        )
        self._obs_pool_workers = metrics.gauge(
            "repro_engine_pool_workers",
            "Worker processes in the shard pool.",
        )
        self._obs_pool_alive = metrics.gauge(
            "repro_engine_pool_alive_workers",
            "Shard-pool workers currently alive.",
        )
        self._obs_pool_workers.set(self.workers)
        self._obs_pool_alive.set(self.workers)
        # The parent executes every gather on behalf of the owning lane,
        # so the family is keyed by the ``worker`` label like the
        # harvested worker families.  Children are resolved per lane up
        # front to keep the zero-copy read path free of per-call dict
        # building.
        gather = metrics.histogram(
            "repro_worker_gather_seconds",
            "Zero-copy slab gather latency, by owning worker",
            labels=("worker",),
        )
        rounds = metrics.histogram(
            "repro_worker_seqlock_retry_rounds",
            "Torn seqlock gather attempts per zero-copy batch read, "
            "by owning worker.",
            labels=("worker",),
            buckets=(1.0, 2.0, 3.0, 4.0),
        )
        retries = metrics.counter(
            "repro_worker_seqlock_retries_total",
            "Zero-copy gathers retried because an apply tore the seqlock.",
            labels=("worker",),
        )
        workers = [str(index) for index in range(self.workers)]
        self._obs_gather_by_worker = [gather.labels(worker=w) for w in workers]
        self._obs_seqlock_rounds_by_worker = [rounds.labels(worker=w) for w in workers]
        self._obs_seqlock_retries_by_worker = [
            retries.labels(worker=w) for w in workers
        ]

    # ------------------------------------------------------------------
    # Lane lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, lane: _Lane, initial: bool = False) -> None:
        """(Re)start ``lane``'s worker.

        The parent closes its copy of the child end immediately so a
        dead worker's pipe reads EOF instead of blocking forever.
        """
        parent_conn, child_conn = self._ctx.Pipe()
        telemetry = (
            self._harvester.worker_telemetry(lane.worker_index)
            if self._harvester is not None
            else None
        )
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                lane.worker_index,
                self._manifests,
                lane.owned,
                child_conn,
                telemetry,
            ),
            daemon=True,
            name=f"repro-shard-worker-{lane.worker_index}",
        )
        process.start()
        child_conn.close()
        lane.process = process
        lane.conn = parent_conn
        if not initial:
            lane.restarts += 1
            self._obs_restarts.labels(worker=str(lane.worker_index)).inc()

    def _mark_dead(self, lane: _Lane) -> None:
        """Reap a crashed worker."""
        if lane.conn is not None:
            try:
                lane.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            lane.conn = None
        if lane.process is not None:
            lane.process.join(timeout=1.0)
            lane.process = None

    def _receive(self, lane: _Lane) -> tuple:
        """Next reply on ``lane``'s pipe.

        Polls in small increments so a worker that died without closing
        the pipe (should not happen, but belt and braces) still fails
        the call instead of hanging it.
        """
        while True:
            if lane.conn.poll(self._poll_interval):
                return lane.conn.recv()
            if lane.process is None or not lane.process.is_alive():
                raise EOFError(f"worker {lane.worker_index} exited mid-call")

    def _drain(self, lane: _Lane) -> None:
        """Collect outstanding pipelined acks.

        A dead pipe here hands recovery to :meth:`_abandon`: the
        parent replays every posted-but-unapplied batch from its ledger
        into the slab, so the death is only surfaced (as
        :class:`~repro.exceptions.WorkerCrashedError`, on this fencing
        operation — the pipeline window is what defers the report) when
        the worker died mid-apply and left a torn batch.
        """
        while lane.pending:
            try:
                message = self._receive(lane)
                status, reply = message[0], message[1]
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as error:
                lost = self._abandon(lane)
                self._mark_dead(lane)
                if lost:
                    raise WorkerCrashedError(
                        f"worker {lane.worker_index} died mid-apply; "
                        f"{lost} delta batch(es) torn beyond replay"
                    ) from error
                # Every outstanding batch was replayed into the slab by
                # the abandon — the fence this drain was serving is
                # semantically satisfied, so the death stays silent
                # until the next operation respawns the lane.
                return
            lane.pending -= 1
            if status != "ok":
                raise StructureError(
                    f"pipelined write on worker {lane.worker_index} "
                    f"failed: {reply}"
                )

    def _abandon(self, lane: _Lane) -> int:
        """Reconcile the write ledgers after losing ``lane`` mid-flight.
        Returns the number of delta batches that could *not* be
        recovered.

        Each owned shard's ``applied`` header is ground truth for what
        reached the slab, and the dead worker was the shard's only
        writer — so the parent now folds the posted-but-unapplied
        ledger suffix into the slab itself, making recovery **exact**
        whenever the seq header is even.  A seq left odd means the
        worker died *mid-apply*: the slab holds a torn batch, replay
        cannot be trusted, and every outstanding batch for that shard
        counts as lost (the seq is bumped even so zero-copy readers
        stop treating the slab as in-flux; callers surface the loss as
        :class:`~repro.exceptions.WorkerCrashedError`).
        """
        lane.pending = 0
        lost = 0
        for index in lane.owned:
            header = self.store.header(index)
            ledger = self._ledgers[index]
            applied = int(header[shm.HEADER_APPLIED])
            if int(header[shm.HEADER_SEQ]) & 1:
                header[shm.HEADER_SEQ] += 1
                lost += sum(1 for number, _ in ledger if number > applied)
                self._posted[index] = applied
            elif applied < self._posted[index]:
                # Replay under the same seqlock discipline the worker
                # used, so the slab header stays the one source of truth.
                header[shm.HEADER_SEQ] += 1
                for number, payload in ledger:
                    if number > applied:
                        shm.slab_apply_deltas(self.store.view(index), payload)
                        applied += 1
                header[shm.HEADER_APPLIED] = applied
                header[shm.HEADER_SEQ] += 1
                self._posted[index] = applied
            ledger.clear()
        return lost

    def _respawn_if_dead(self, lane: _Lane) -> None:
        """Respawn a dead ``lane``.

        Silent when every outstanding write could be recovered (the
        slab plus the parent's ledger replay hold the exact state, so
        the fresh worker answers exactly), loud when the worker died
        mid-apply — the torn batch cannot be replayed, and pretending
        otherwise would serve wrong sums.
        """
        if lane.process is not None and lane.process.is_alive():
            return
        lost = self._abandon(lane)
        self._mark_dead(lane)
        self._spawn(lane)
        if lost:
            raise WorkerCrashedError(
                f"worker {lane.worker_index} died mid-apply; "
                f"{lost} delta batch(es) torn beyond replay"
            )

    # ------------------------------------------------------------------
    # Slab traffic
    # ------------------------------------------------------------------

    def lane_of(self, shard_index: int) -> int:
        """Worker index owning ``shard_index``."""
        return shard_index % self.workers

    def post(self, shard_index: int, op: str, payload) -> None:
        """Pipelined one-way send to the worker owning ``shard_index``.

        The ack is *not* awaited — it is collected by the next
        :meth:`fence` / :meth:`post` / :meth:`flush` touching the lane
        (or here, once :data:`pipeline_window` sends are outstanding).
        This hides the worker's wake-up latency behind the parent's own
        work, which is what makes writes cheap on a busy box; the price
        is that a worker death with a send in flight surfaces on the
        fencing operation instead of this one.
        """
        lane = self._lanes[shard_index % self.workers]
        obs = self.obs
        start = obs.clock.now() if obs.enabled else 0.0
        self._respawn_if_dead(lane)
        if lane.pending >= self.pipeline_window:
            self._drain(lane)
        try:
            lane.conn.send((op, shard_index, payload))
        except (BrokenPipeError, ConnectionResetError, OSError) as error:
            self._abandon(lane)
            self._mark_dead(lane)
            raise WorkerCrashedError(
                f"worker {lane.worker_index} died accepting shard "
                f"{shard_index} {op}"
            ) from error
        lane.pending += 1
        if op == "apply":
            self._posted[shard_index] += 1
            self._ledgers[shard_index].append((self._posted[shard_index], payload))
        if obs.enabled:
            self._obs_ipc_seconds.labels(op=f"{op}_post").observe(
                obs.clock.now() - start
            )

    def write(self, shard_index: int, updates: Sequence[tuple]) -> None:
        """Record deltas destined for ``shard_index``'s owning worker.

        The deltas are buffered parent-side and shipped
        :data:`ship_threshold` at a time — every shipment wakes the
        worker, which on a loaded box preempts the parent for a
        scheduling quantum, so per-write shipping would make "writes
        ship as deltas" cost more than applying them.  Readers stay
        exact throughout: :meth:`read_many` folds both the buffer and
        the shipped-but-unapplied ledger into every gather.
        """
        if not updates:
            return
        buffer = self._buffers[shard_index]
        buffer.extend(updates)
        if len(buffer) >= self.ship_threshold:
            self._ship(shard_index)

    def _ship(self, shard_index: int) -> None:
        """Send ``shard_index``'s buffered deltas as one apply batch."""
        buffer = self._buffers[shard_index]
        if not buffer:
            return
        batch = list(buffer)
        del buffer[:]
        try:
            self.post(shard_index, "apply", batch)
        except WorkerCrashedError:
            # The batch never reached the worker — keep it for the
            # respawned one so nothing silently drops.
            buffer[:0] = batch
            raise

    def fence(self, shard_index: int) -> None:
        """Make ``shard_index``'s slab current: ship buffered deltas,
        then wait for every pipelined write on its lane."""
        self._ship(shard_index)
        lane = self._lanes[shard_index % self.workers]
        if not lane.pending:
            return
        self._respawn_if_dead(lane)
        self._drain(lane)

    def pending_writes(self, shard_index: int) -> bool:
        """True while writes for ``shard_index`` have not reached its
        slab — buffered parent-side or shipped but unacknowledged."""
        if self._buffers[shard_index]:
            return True
        return self._lanes[shard_index % self.workers].pending > 0

    def read_many(self, shard_index: int, queries: Sequence[tuple]) -> list:
        """Zero-copy consistent batch read of ``shard_index``'s slab.

        Never waits on the worker: the gather is bracketed by the
        shard's seqlock (an even, unchanged ``seq`` proves no apply
        tore it), and the ``applied`` counter says which posted delta
        batches the slab already held — the rest are folded in from the
        parent's own ledger, which is exact because the parent posted
        them.  Only a gather that keeps colliding with an in-progress
        apply falls back to one fence, after four torn gathers: the one
        pipe wait a read can take, and it waits for an apply that is
        already running.
        """
        store = self.store
        header = store.header(shard_index)
        ledger = self._ledgers[shard_index]
        lane = self._lanes[shard_index % self.workers]
        obs = self.obs
        enabled = obs.enabled
        worker = lane.worker_index
        retries = 0
        for _ in range(4):
            seq_before = int(header[shm.HEADER_SEQ])
            if seq_before & 1:
                break
            applied = int(header[shm.HEADER_APPLIED])
            gather_start = obs.clock.now() if enabled else 0.0
            values = store.range_sum_many(shard_index, queries)
            if int(header[shm.HEADER_SEQ]) != seq_before:
                retries += 1
                continue
            if enabled:
                self._obs_gather_by_worker[worker].observe(
                    obs.clock.now() - gather_start
                )
                self._obs_seqlock_rounds_by_worker[worker].observe(float(retries))
                if retries:
                    self._obs_seqlock_retries_by_worker[worker].inc(retries)
            if ledger:
                while ledger and ledger[0][0] <= applied:
                    ledger.popleft()
                if ledger:
                    values = _fold_pending(
                        values, queries, [updates for _, updates in ledger]
                    )
            buffer = self._buffers[shard_index]
            if buffer:
                values = _fold_pending(values, queries, [buffer])
            return values
        # The worker is mid-apply (or kept winning the race): one fence
        # settles the pipeline, after which the slab alone is exact.
        if enabled:
            self._obs_seqlock_rounds_by_worker[worker].observe(4.0)
            self._obs_seqlock_retries_by_worker[worker].inc(max(retries, 1))
        self.fence(shard_index)
        return store.range_sum_many(shard_index, queries)

    def flush(self) -> None:
        """Ship every buffered delta and collect every outstanding ack.

        The engine calls this before bulk slab rewrites
        (``from_array`` on a live store) so no stale delta can race a
        reload.  A dead lane respawns here to take its deltas.
        """
        for index in range(self.store.count):
            self._ship(index)
        for lane in self._lanes:
            if lane.pending:
                self._drain(lane)

    def kill_worker(self, shard_index: int) -> bool:
        """SIGKILL the worker owning ``shard_index`` (chaos hook).

        Joins the corpse before returning so the very next call
        deterministically observes the death.  Returns False when the
        worker was already down.
        """
        process = self._lanes[shard_index % self.workers].process
        if process is None or not process.is_alive():
            return False
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=5.0)
        return True

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def harvest(self) -> dict | None:
        """Merge worker shared-memory telemetry into the parent registry.

        Returns the harvester's summary dict, or ``None`` when remote
        worker metrics are off (disabled obs, or
        ``remote_worker_metrics=False``).  Safe to call at any moment —
        including with workers dead — because the parent owns the
        segments and merging is delta-based (see
        :class:`~repro.obs.remote.MetricsHarvester`).
        """
        if self._harvester is None:
            return None
        return self._harvester.harvest(self.obs.metrics)

    def pool_info(self) -> dict:
        """Live pool snapshot: one row per lane plus rollups."""
        lanes = []
        alive = 0
        for lane in self._lanes:
            is_alive = lane.process is not None and lane.process.is_alive()
            lanes.append(
                {
                    "worker": lane.worker_index,
                    "shards": list(lane.owned),
                    "pid": lane.process.pid if lane.process is not None else None,
                    "alive": is_alive,
                    "restarts": lane.restarts,
                    "pending_acks": lane.pending,
                }
            )
            alive += is_alive
        if self.obs.enabled:
            self._obs_pool_alive.set(alive)
        telemetry = None
        if self._harvester is not None:
            telemetry = {
                "harvests": self._harvester.harvests,
                "torn_snapshots": self._harvester.torn_snapshots,
                "updates_published": sum(
                    self._harvester.updates_published(index)
                    for index in range(self.workers)
                ),
            }
        return {
            "executor": "process",
            "workers": self.workers,
            "alive": alive,
            "restarts": sum(row["restarts"] for row in lanes),
            "start_method": self._ctx.get_start_method(),
            "buffered_deltas": sum(len(buf) for buf in self._buffers),
            "telemetry": telemetry,
            "lanes": lanes,
        }

    def shutdown(self) -> None:
        """Stop every worker and release the telemetry (idempotent).

        A live worker first receives its shards' buffered deltas and
        acknowledges every pipelined write.  A dead lane stays dead:
        respawning a worker only to stop it would fork for nothing.
        """
        for lane in self._lanes:
            if lane.process is None:
                continue
            if lane.process.is_alive():
                try:
                    for index in lane.owned:
                        self._ship(index)
                    # Drain pipelined acks so the stop handshake reads
                    # its own reply, not a queued write ack.
                    self._drain(lane)
                    lane.conn.send(("stop", -1, None))
                    if lane.conn.poll(1.0):
                        lane.conn.recv()
                except (
                    BrokenPipeError,
                    EOFError,
                    OSError,
                    WorkerCrashedError,
                    StructureError,
                ):
                    pass
            lane.pending = 0
            if lane.process is not None:
                lane.process.join(timeout=2.0)
                if lane.process.is_alive():  # pragma: no cover - stuck
                    lane.process.terminate()
                    lane.process.join(timeout=1.0)
                lane.process = None
            if lane.conn is not None:
                try:
                    lane.conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
                lane.conn = None
        if self._harvester is not None:
            # Take one last merge so metrics published after the final
            # explicit harvest are not lost, then release the segments.
            self._harvester.harvest(self.obs.metrics)
            self._harvester.destroy()
            self._harvester = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessExecutor(workers={self.workers}, "
            f"shards={self.store.count})"
        )


class ShmShardReplica(RangeSumMethod):
    """Parent-side proxy for a shard whose slab lives in shared memory.

    Implements the :class:`~repro.methods.base.RangeSumMethod` surface
    the engine drives — ``range_sum`` / ``range_sum_many`` / ``add`` /
    ``add_many``.  Writes ship as compact ``(cell, delta)`` tuples to
    the owning worker via :meth:`ProcessExecutor.write` (combined per
    cell first, same as every method's batch write path); the worker is
    the shard's single writer.  Reads are served as zero-copy
    inclusion-exclusion gathers off the parent's own mapping of the
    slab (:meth:`ProcessExecutor.read_many`) — exact because the engine
    has one owner, so no write interleaves with a read's fan-out.
    """

    name = "shm-replica"
    batch_crossover = 1  # one seqlock gather either way: always batch

    def __init__(
        self,
        pool: ProcessExecutor,
        shard_index: int,
        shape: Sequence[int],
        dtype=np.int64,
    ) -> None:
        super().__init__(shape, dtype=dtype)
        self._pool = pool
        self._shard_index = shard_index

    # -- writes --------------------------------------------------------

    def add(self, cell, delta) -> None:
        cell = geometry.normalize_cell(cell, self.shape)
        if delta == 0:
            return
        self.stats.cell_writes += 1
        self._pool.write(self._shard_index, [(cell, self._native(delta))])

    def add_many(self, updates: Sequence[tuple]) -> None:
        combined = self._combined_updates(updates)
        if not combined:
            return
        self.stats.cell_writes += len(combined)
        self._pool.write(
            self._shard_index,
            [(cell, self._native(delta)) for cell, delta in combined],
        )

    # -- reads ---------------------------------------------------------

    def prefix_sum(self, cell):
        cell = geometry.normalize_cell(cell, self.shape)
        return self.range_sum((0,) * self.dims, cell)

    def range_sum(self, low, high):
        low_cell, high_cell = geometry.normalize_range(low, high, self.shape)
        self.stats.cell_reads += 1 << self.dims
        values = self._pool.read_many(self._shard_index, [(low_cell, high_cell)])
        return self.dtype.type(values[0])

    def range_sum_many(self, ranges: Sequence) -> list:
        queries = [self._query_bounds(item) for item in ranges]
        if not queries:
            return []
        self._use_batch_path(len(queries))
        self.stats.cell_reads += len(queries) << self.dims
        values = self._pool.read_many(self._shard_index, queries)
        return [self.dtype.type(value) for value in values]

    # -- bookkeeping ---------------------------------------------------

    def memory_cells(self) -> int:
        """Cells in the shard's slab (stored once, in shared memory)."""
        return int(np.prod(self.shape))

    def _native(self, delta):
        """Delta as a plain Python number (minimal pickle payload)."""
        return self.dtype.type(delta).item()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShmShardReplica(shard={self._shard_index}, shape={self.shape})"
        )
