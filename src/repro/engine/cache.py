"""Hot-range LRU result cache with per-shard epoch invalidation.

A read-heavy serving workload re-issues the same analytical ranges over
and over (dashboard refreshes probing the same few hot regions), so the
engine memoises finished range sums.  Correctness under writes comes
from *epoch validation* rather than eager invalidation:

* every shard carries a monotonically increasing epoch counter, bumped
  by the engine on each write batch that touches the shard;
* a cached entry records, for every shard its range overlaps, the epoch
  at which the value was computed;
* a lookup re-validates the stored epochs against the current ones —
  any mismatch means some overlapping shard has been written since, and
  the entry is discarded as stale.

Writes therefore cost O(1) cache work no matter how many entries they
invalidate, stale entries can never be served (the invariant
``docs/engine.md`` states precisely), and a write to one shard leaves
cached ranges over the *other* shards perfectly warm — the payoff of
per-shard rather than global epochs.

The cache itself is not thread-safe; the engine serialises access
through its lock (flow rule REP009 checks this on every path).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Sequence

from ..exceptions import ConfigurationError

__all__ = ["EpochLruCache", "MISS"]

#: Sentinel distinguishing "not cached" from a cached falsy value.
MISS = object()

#: How many of the oldest entries an eviction probes for a stale victim
#: before falling back to plain LRU.  Bounding the probe keeps ``put``
#: O(1) at capacity while still preferring dead entries in the common
#: case (stale entries cluster at the cold end — nobody re-reads them,
#: or the read would have discarded them already).
_STALE_SCAN_LIMIT = 8


class EpochLruCache:
    """LRU map from query key to (value, dependent shards, their epochs)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ConfigurationError(
                f"cache capacity must be >= 0, got {capacity}"
            )
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, tuple] = OrderedDict()
        #: Entries discarded because an overlapping shard advanced.
        self.invalidations = 0
        #: Entries discarded to make room (capacity pressure).
        self.evictions = 0
        #: Subset of ``evictions`` where the victim was already stale —
        #: evicting it cost nothing a future lookup could have used.
        self.stale_evictions = 0

    def get(self, key: Hashable, current_epochs: Sequence[int]):
        """The cached value for ``key``, or :data:`MISS`.

        ``current_epochs`` is the engine's live per-shard epoch list; a
        hit requires every dependent shard's stored epoch to match it.
        A stale entry is deleted on sight so it cannot linger at the
        recently-used end of the queue.
        """
        entry = self._entries.get(key)
        if entry is None:
            return MISS
        value, shards, epochs = entry
        if any(current_epochs[s] != e for s, e in zip(shards, epochs)):
            del self._entries[key]
            self.invalidations += 1
            return MISS
        self._entries.move_to_end(key)
        return value

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
        already stale and the very next :meth:`get` discards the entry —
        conservative, never incorrect.

        Under capacity pressure the eviction probes the oldest
        :data:`_STALE_SCAN_LIMIT` entries for one already invalidated by
        a shard write and discards that in preference to a live entry;
        only when every probed entry is still valid does plain LRU
        (oldest first) apply.
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
        """Oldest already-stale entry within the probe window, if any."""
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
