"""Shared-memory shard store: per-shard prefix-sum slabs, zero-copy attach.

The process executor (see :mod:`repro.engine.process`) cannot ship the
per-shard tree structures to its workers — pickling a DDC per request
would cost more than the query it parallelises.  Instead every shard's
payload is flattened into the one representation the paper's family of
structures shares: a contiguous, C-ordered **prefix-sum slab** (HAMS97),
living in a :mod:`multiprocessing.shared_memory` segment.  That buys:

* **zero-copy attach** — workers map the segment by name and apply
  deltas straight onto the parent's pages, while the parent gathers
  reads off its own mapping; no serialisation ever;
* **O(2^d) reads** — a range sum is an inclusion-exclusion gather of at
  most ``2^d`` corners (one fancy-index per sub-query batch), which is
  the cache-conscious flat layout Pibiri & Venturini identify as the
  dominant prefix-sum lever;
* **compact write deltas** — a point update is a suffix-rectangle
  ``+=`` on the slab, so a delta ships as just ``(cell, delta)``;
* **crash-proof state** — the slab outlives the worker process, so a
  respawned worker reattaches and applies exactly, with no rebuild.

:class:`ShardSlabStore` is the owner-side registry (allocation, bulk
load, direct reads for the fallback degradation path, teardown); the
module-level :func:`slab_range_sum_many_vector` (the read kernel, run
on the parent's views) and :func:`slab_apply_deltas` (run on the
workers' attached views in ``process.py``, and by the parent when it
replays a dead worker's ledger) are the shared math.
"""

from __future__ import annotations

import itertools
import os
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from ..core.slab_tree import slab_range_many
from ..shmutil import attach_segment
from .sharding import ShardPlan

__all__ = [
    "HEADER_APPLIED",
    "HEADER_SEQ",
    "ShardSlabStore",
    "attach_slab",
    "build_prefix",
    "slab_range_sum_many_vector",
    "slab_apply_deltas",
]

#: One manifest entry: ``(segment name, slab shape, numpy dtype string)``.
#: Plain tuples so the whole manifest pickles cheaply to spawned workers.
SlabManifest = tuple[str, tuple[int, ...], str]

_SEGMENT_IDS = itertools.count()

#: Each segment opens with a small int64 header ahead of the slab:
#: ``seq`` is a classic single-writer seqlock counter (odd while the
#: owning worker is mid-apply, bumped to even after), ``applied`` counts
#: delta batches folded into the slab so far.  Together they let the
#: parent read the slab without ever blocking on the worker: an even,
#: unchanged ``seq`` brackets a consistent gather, and ``applied`` tells
#: the parent which of its posted-but-unacknowledged batches the gather
#: already includes.  (Relies on aligned 8-byte stores being atomic —
#: true on every platform CPython's shared_memory supports.)
HEADER_SEQ = 0
HEADER_APPLIED = 1
_HEADER_COUNT = 2
_HEADER_DTYPE = np.dtype(np.int64)
_HEADER_NBYTES = _HEADER_COUNT * _HEADER_DTYPE.itemsize


def build_prefix(values: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` with the inclusive prefix sums of ``values`` in place.

    Same math as ``PrefixSumCube.from_array``: one in-place ``cumsum``
    per axis turns the raw slab into the HAMS97 prefix array.
    """
    np.copyto(out, values, casting="unsafe")
    for axis in range(out.ndim):
        np.cumsum(out, axis=axis, out=out)


#: Batch size from which one corner gather beats looping the integer
#: path: measured equal at 8 queries in 2-d and 3-d (CHANGES.md PR 22).
_GATHER_MIN_QUERIES = 8


def slab_range_sum_many_vector(slab: np.ndarray, ranges: Sequence[tuple]) -> list:
    """Answer local range sums against a prefix slab — the read kernel.

    Coordinates are trusted: callers (the engine's shard decomposition)
    have already normalised them to the slab's local space.  Returns
    plain Python numbers.  A single query (the engine's per-event read path) takes a
    pure-integer path that never builds an array; below
    :data:`_GATHER_MIN_QUERIES` a loop over that path beats the gather's
    fixed set-up; from there on the vectorised inclusion-exclusion
    expansion from :mod:`repro.core.slab_tree` — one corner tensor, one
    gather, one signed reduction for the whole batch — wins.
    """
    count = len(ranges)
    if count == 1:
        low, high = ranges[0]
        return [_range_sum_single(slab, low, high)]
    if count < _GATHER_MIN_QUERIES:
        return [_range_sum_single(slab, low, high) for low, high in ranges]
    dims = slab.ndim
    lows = np.empty((count, dims), dtype=np.int64)
    highs = np.empty((count, dims), dtype=np.int64)
    for position, (low, high) in enumerate(ranges):
        lows[position] = low
        highs[position] = high
    return slab_range_many(slab, lows, highs).tolist()


def _range_sum_single(slab: np.ndarray, low: tuple, high: tuple) -> object:
    """One inclusion-exclusion read with integer-only corner arithmetic.

    Corner values come out through ``ndarray.item`` on a logical
    (C-order) flat index — one Python number per read, no intermediate
    array scalars — so the engine's per-event miss path stays cheap.
    """
    dims = slab.ndim
    shape = slab.shape
    stride = 1
    strides = [1] * dims
    for axis in range(dims - 1, -1, -1):
        strides[axis] = stride
        stride *= shape[axis]
    item = slab.item
    total = 0
    for mask in range(1 << dims):
        index = 0
        sign = 1
        valid = True
        for axis in range(dims):
            if (mask >> axis) & 1:
                coordinate = low[axis] - 1
                if coordinate < 0:
                    valid = False
                    break
                sign = -sign
            else:
                coordinate = high[axis]
            index += coordinate * strides[axis]
        if not valid:
            continue
        if sign > 0:
            total += item(index)
        else:
            total -= item(index)
    return total


def slab_apply_deltas(slab: np.ndarray, updates: Sequence[tuple]) -> None:
    """Apply point-update deltas to a prefix slab in place.

    A point update at ``cell`` adds its delta to every prefix covering
    the cell — the suffix rectangle ``slab[c0:, c1:, ...]`` — which is
    exactly ``PrefixSumCube.add`` vectorised over the shared mapping.
    """
    for cell, delta in updates:
        region = tuple(slice(int(coordinate), None) for coordinate in cell)
        slab[region] += delta


def attach_slab(manifest: SlabManifest) -> tuple:
    """Map an existing segment by name; returns ``(segment, header, view)``.

    Worker-side entry point.  The attach is untracked (see
    :func:`repro.shmutil.attach_segment`): the owner process unlinks
    segments deterministically in :meth:`ShardSlabStore.destroy`, so the
    worker's resource tracker must not also claim the name.
    """
    name, shape, dtype_str = manifest
    segment = attach_segment(name)
    header = np.ndarray(_HEADER_COUNT, dtype=_HEADER_DTYPE, buffer=segment.buf)
    view = np.ndarray(
        shape,
        dtype=np.dtype(dtype_str),
        buffer=segment.buf,
        offset=_HEADER_NBYTES,
    )
    return segment, header, view


class ShardSlabStore:
    """Owner-side registry of per-shard prefix-sum slabs in shared memory.

    Built once at plan time: one segment per shard, shaped by the plan's
    leading-dimension slab, zero-filled (an all-zero array has an
    all-zero prefix).  The store is the single owner — workers attach
    read-write views by name but never allocate or unlink.

    Args:
        plan: the engine's shard plan; one segment per shard span.
        dtype: slab value dtype (must support exact add/subtract).
    """

    def __init__(self, plan: ShardPlan, dtype=np.int64) -> None:
        self.plan = plan
        self.dtype = np.dtype(dtype)
        self._segments: list[shared_memory.SharedMemory] = []
        self._headers: list[np.ndarray] = []
        self._views: list[np.ndarray] = []
        self._closed = False
        token = f"{os.getpid():x}-{next(_SEGMENT_IDS):x}"
        try:
            for index in range(plan.count):
                shape = plan.shard_shape(index)
                nbytes = int(np.prod(shape)) * self.dtype.itemsize
                segment = shared_memory.SharedMemory(
                    name=f"repro-slab-{token}-{index}",
                    create=True,
                    size=_HEADER_NBYTES + max(1, nbytes),
                )
                header = np.ndarray(
                    _HEADER_COUNT, dtype=_HEADER_DTYPE, buffer=segment.buf
                )
                header[...] = 0
                view = np.ndarray(
                    shape,
                    dtype=self.dtype,
                    buffer=segment.buf,
                    offset=_HEADER_NBYTES,
                )
                view[...] = 0
                self._segments.append(segment)
                self._headers.append(header)
                self._views.append(view)
        except BaseException:
            self.destroy()
            raise

    @property
    def count(self) -> int:
        """Number of shard slabs."""
        return self.plan.count

    def manifest(self) -> list[SlabManifest]:
        """Picklable attach instructions, one entry per shard."""
        return [
            (segment.name, tuple(view.shape), view.dtype.str)
            for segment, view in zip(self._segments, self._views)
        ]

    def view(self, index: int) -> np.ndarray:
        """The owner's live view of shard ``index``'s slab."""
        return self._views[index]

    def header(self, index: int) -> np.ndarray:
        """The owner's live view of shard ``index``'s seqlock header
        (``[HEADER_SEQ, HEADER_APPLIED]``)."""
        return self._headers[index]

    def load_array(self, array: np.ndarray) -> None:
        """Recompute every slab from ``array`` (bulk load, in place).

        Attached workers observe the new contents immediately — the
        pages are shared — so callers must bump shard epochs themselves
        to invalidate any cached results.
        """
        array = np.asarray(array)
        for index in range(self.plan.count):
            build_prefix(array[self.plan.slab(index)], self._views[index])

    def range_sum(self, index: int, low: tuple, high: tuple):
        """Direct (no-IPC) local range sum — the fallback read path."""
        return slab_range_sum_many_vector(self._views[index], [(low, high)])[0]

    def range_sum_many(self, index: int, ranges: Sequence[tuple]) -> list:
        """Direct (no-IPC) batch of local range sums."""
        return slab_range_sum_many_vector(self._views[index], ranges)

    def apply_deltas(self, index: int, updates: Sequence[tuple]) -> None:
        """Direct (no-IPC) delta application — owner-side write path."""
        slab_apply_deltas(self._views[index], updates)

    def memory_cells(self) -> int:
        """Total cells stored across all slabs."""
        return sum(int(view.size) for view in self._views)

    def destroy(self) -> None:
        """Close and unlink every segment (idempotent).

        Workers must be stopped (or tolerant of a vanished mapping)
        before the owner destroys the store; the engine's ``close()``
        shuts the pool down first.
        """
        if self._closed:
            return
        self._closed = True
        self._views = []
        self._headers = []
        for segment in self._segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - platform dependent
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardSlabStore(shards={self.plan.count}, dtype={self.dtype}, "
            f"cells={0 if self._closed else self.memory_cells()})"
        )
