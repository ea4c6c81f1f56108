"""Hot-range LRU result cache with exact per-shard epoch invalidation.

A read-heavy serving workload re-issues the same analytical ranges over
and over (dashboard refreshes probing the same few hot regions), so the
engine memoises finished range sums.  Correctness under writes comes
from *epoch validation* rather than eager invalidation:

* every shard carries a monotonically increasing epoch counter, bumped
  by the engine on each write (or write batch) that touches the shard;
* a cached entry records, for every shard its range overlaps, the epoch
  at which the value was computed;
* the engine also logs the cells each write touched
  (:meth:`EpochLruCache.log_cell` / :meth:`EpochLruCache.log_cells`):
  a short per-shard record of the writes at each epoch;
* a lookup whose stamp is behind a shard's epoch checks the cells
  logged since the stamp.  If none lies inside the key's
  ``(low, high)`` range the sum is unchanged: the entry is re-stamped
  and served (a *revalidation*).  Otherwise it is discarded as stale.

A lookup that cannot be checked discards the entry as before: an epoch
advance with no logged cells (a bulk load), a stamp older than the
log's window, or a key that is not a ``(low, high)`` range.  So a
cached sum is served only if no write since it was computed touched a
cell inside its range (the invariant ``docs/engine.md`` states), and
writes still cost O(1) cache work: one append, no cached key scanned.

Each shard's log holds at most ``capacity`` cells, the cache's own
entry bound.  Once it grows past that, its oldest records are dropped
down to half, so trimming is amortised over many writes.

The cache itself is not thread-safe, and needs not be: one thread owns
the engine that owns it (``docs/api.md``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Sequence

from ..exceptions import ConfigurationError

__all__ = ["EpochLruCache", "MISS"]

#: Sentinel distinguishing "not cached" from a cached falsy value.
MISS = object()

#: How many of the oldest entries an eviction probes for one whose
#: stamp is behind before falling back to plain LRU.  Bounding the
#: probe keeps ``put`` O(1) at capacity while still preferring entries
#: a write has touched (they cluster at the cold end: a re-read would
#: have re-stamped or discarded them already).
_STALE_SCAN_LIMIT = 8


class _WriteLog:
    """One shard's recent writes: ``records[i]`` is what the write at
    epoch ``base + 1 + i`` touched, a cell tuple (a point update) or a
    list of cells (a batch).

    The bound counts cells.  ``room`` is how many records fit before the
    log trims: the cell bound less the cells that batches add beyond one
    per record, so a point update pays one append and one length test.
    """

    __slots__ = ("base", "records", "limit", "room")

    def __init__(self, base: int, limit: int) -> None:
        self.base = base
        self.records: list = []
        self.limit = limit
        self.room = limit

    def restart(self, base: int) -> None:
        """Forget every record; the log now starts at epoch ``base``."""
        self.base = base
        self.records.clear()
        self.room = self.limit

    def trim(self) -> None:
        """Drop the oldest records until at most half the bound remains."""
        records = self.records
        keep = self.limit // 2
        extra = self.limit - self.room  # batch cells beyond one a record
        if not extra:
            dropped = len(records) - keep
        else:
            cells = len(records) + extra
            dropped = 0
            while cells > keep:
                record = records[dropped]
                if type(record) is list:
                    cells -= len(record)
                    extra -= len(record) - 1
                else:
                    cells -= 1
                dropped += 1
        del records[:dropped]
        self.base += dropped
        self.room = self.limit - extra


def _touches(records: list, low: tuple, high: tuple) -> bool:
    """Whether a cell of ``records`` (cells, or lists of cells) lies
    inside the box ``[low, high]``.  The first and last coordinates are
    compared inline; only a cell inside on both is checked in full."""
    first_lo, first_hi, last_lo, last_hi = low[0], high[0], low[-1], high[-1]
    for record in records:
        if type(record) is list:
            if _touches(record, low, high):
                return True
        elif (
            first_lo <= record[0] <= first_hi
            and last_lo <= record[-1] <= last_hi
            and all(lo <= x <= hi for x, lo, hi in zip(record, low, high))
        ):
            return True
    return False


class EpochLruCache:
    """LRU map from query key to (value, dependent shards, their epochs)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ConfigurationError(
                f"cache capacity must be >= 0, got {capacity}"
            )
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, tuple] = OrderedDict()
        #: shard index -> its write log, created by the first logged write.
        self._logs: dict[int, _WriteLog] = {}
        #: Entries discarded because a write since their stamp touched
        #: their range (or could not be checked).
        self.invalidations = 0
        #: Entries whose stamp was behind but whose range no logged
        #: write touched: re-stamped and served.
        self.revalidations = 0
        #: Entries discarded to make room (capacity pressure).
        self.evictions = 0
        #: Subset of ``evictions`` where the victim's stamp was behind —
        #: a cheap guess that evicting it cost nothing a future lookup
        #: could have used.
        self.stale_evictions = 0

    # -- write log -----------------------------------------------------

    def log_cell(self, shard: int, epoch: int, cell: tuple) -> None:
        """Record that the write moving ``shard`` to ``epoch`` touched
        ``cell`` (global coordinates)."""
        log = self._logs.get(shard) or self._new_log(shard, epoch)
        if log is None:
            return
        records = log.records
        records.append(cell)
        if len(records) > log.room:
            log.trim()

    def log_cells(self, shard: int, epoch: int, cells: list) -> None:
        """Record that the batch moving ``shard`` to ``epoch`` touched
        ``cells`` (global coordinates).  A one-cell batch is logged as
        its cell, like :meth:`log_cell`: a served ``/update`` arrives as
        one, and a bare cell is checked without a nested scan."""
        if len(cells) == 1:
            self.log_cell(shard, epoch, cells[0])
            return
        log = self._logs.get(shard) or self._new_log(shard, epoch)
        if log is None:
            return
        log.records.append(cells)
        log.room -= len(cells) - 1
        if len(log.records) > log.room:
            log.trim()

    def _new_log(self, shard: int, epoch: int) -> _WriteLog | None:
        """Start ``shard``'s log just before ``epoch`` (none when the
        cache is disabled)."""
        if self.capacity == 0:
            return None
        log = self._logs[shard] = _WriteLog(epoch - 1, self.capacity)
        return log

    # -- lookups -------------------------------------------------------

    def get(self, key: Hashable, current_epochs: Sequence[int]):
        """The cached value for ``key``, or :data:`MISS`.

        ``current_epochs`` is the engine's live per-shard epoch list.  An
        entry stamped at every dependent shard's current epoch is a hit.
        One whose stamp is behind is served (and re-stamped) only when
        the shard logs show no write since the stamp inside ``key``'s
        range; otherwise it is deleted on sight so it cannot linger at
        the recently-used end of the queue.
        """
        entry = self._entries.get(key)
        if entry is None:
            return MISS
        value, shards, epochs = entry
        for shard, epoch in zip(shards, epochs):
            if current_epochs[shard] != epoch:
                break
        else:
            self._entries.move_to_end(key)
            return value
        fresh = self._revalidated(key, shards, epochs, current_epochs)
        if fresh is None:
            del self._entries[key]
            self.invalidations += 1
            return MISS
        self._entries[key] = (value, shards, fresh)
        self._entries.move_to_end(key)
        self.revalidations += 1
        return value

    def _revalidated(
        self,
        key: Hashable,
        shards: tuple,
        epochs: tuple,
        current_epochs: Sequence[int],
    ) -> tuple | None:
        """The current stamps for an entry whose range no logged write
        since ``epochs`` touched, or ``None`` when a write did or the
        logs cannot tell."""
        if type(key) is not tuple or len(key) != 2:
            return None
        low, high = key
        fresh = []
        for shard, stamp in zip(shards, epochs):
            now = current_epochs[shard]
            fresh.append(now)
            if now == stamp:
                continue
            log = self._logs.get(shard)
            if log is None:
                return None
            base = log.base
            if base + len(log.records) != now:
                # The epoch advanced without a logged write (a bulk
                # load): nothing before ``now`` can be checked any more.
                log.restart(now)
                return None
            if stamp < base or _touches(log.records[stamp - base:], low, high):
                return None
        return tuple(fresh)

    def put(
        self,
        key: Hashable,
        value,
        shards: Sequence[int],
        current_epochs: Sequence[int],
    ) -> None:
        """Store ``value`` stamped with the epochs of its ``shards``.

        ``current_epochs`` must be the epoch snapshot taken *before* the
        value was computed: if a write slipped in between, the stamp is
        behind and the next :meth:`get` checks that write's cells like
        any other — conservative, never incorrect.

        Under capacity pressure the eviction probes the oldest
        :data:`_STALE_SCAN_LIMIT` entries for one whose stamp is behind
        (a shard it depends on has been written since) and discards that
        in preference to an entry stamped at the current epochs; only
        when every probed stamp is current does plain LRU (oldest first)
        apply.
        """
        if self.capacity == 0:
            return
        shards = tuple(shards)
        stamped = tuple(current_epochs[s] for s in shards)
        self._entries[key] = (value, shards, stamped)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            victim = self._stale_victim(current_epochs)
            if victim is not None:
                del self._entries[victim]
                self.stale_evictions += 1
            else:
                self._entries.popitem(last=False)
            self.evictions += 1

    def _stale_victim(self, current_epochs: Sequence[int]) -> Hashable | None:
        """Oldest entry within the probe window whose stamp is behind,
        if any.  It may still revalidate; the probe does not check the
        logs, to keep eviction cheap."""
        for probed, (key, entry) in enumerate(self._entries.items()):
            if probed >= _STALE_SCAN_LIMIT:
                return None
            _, shards, epochs = entry
            if any(current_epochs[s] != e for s, e in zip(shards, epochs)):
                return key
        return None

    def clear(self) -> None:
        """Drop every entry (epoch counters live in the engine, not here)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EpochLruCache(size={len(self._entries)}, "
            f"capacity={self.capacity})"
        )
