"""LRU plan cache for the Connection/Cursor serving API.

Plans are cached under ``(normalized SQL, catalog epoch)``.  The normalized
SQL is the canonical rendering of the *bound* query (whitespace, keyword
case and parameter values already resolved), so an ad-hoc statement and a
prepared statement executed with the same values share one entry.  Keying on
the catalog epoch makes invalidation implicit: ANALYZE, index creation and
table DDL all bump the epoch (the re-optimization loops' statement-local
tables are not DDL and leave it alone), so stale entries can never be served
again.  They are also *pruned eagerly*: the first probe after an epoch bump
drops every entry from older epochs (counted in
:attr:`PlanCacheStats.stale_evictions`), so dead plans do not squat in the
LRU capacity and push out live ones — a tiny cache stays fully usable across
ANALYZE/DDL churn.

The cache is **thread-safe**: one process-wide instance can back every
session of the concurrent serving layer (:mod:`repro.server`).  All probes,
inserts and prunes run under an internal lock, so concurrent churn can
neither lose entries, corrupt the LRU order, nor double-count stats.  Epoch
pruning is additionally monotonic: a session still executing against an
*older* pinned snapshot may probe with its older epoch without clobbering
entries cached by sessions already at the newer epoch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.optimizer import PlannedQuery

#: Default number of plans kept per connection.
DEFAULT_PLAN_CACHE_SIZE = 64

CacheKey = Tuple[Hashable, ...]


@dataclass
class PlanCacheStats:
    """Hit/miss accounting exposed on :class:`~repro.engine.connection.Connection`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Entries dropped because the catalog epoch moved past them (they could
    #: never hit again), as opposed to LRU capacity ``evictions``.
    stale_evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of cache probes."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered from the cache (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class PlanCache:
    """A bounded LRU mapping of cache keys to planned queries."""

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        if capacity < 0:
            raise ValueError("plan cache capacity must be non-negative")
        self.capacity = capacity
        self.stats = PlanCacheStats()
        self._entries: (
            "OrderedDict[CacheKey, Tuple[PlannedQuery, Optional[Hashable]]]"
        ) = OrderedDict()
        self._epoch: Optional[Hashable] = None
        # Guards _entries, _epoch and the stats counters: get/put interleave
        # an unlocked OrderedDict probe with move_to_end/popitem mutations,
        # which concurrent sessions would corrupt (lost entries, broken LRU
        # links, double-counted stats) without mutual exclusion.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def enabled(self) -> bool:
        """False when the cache was configured with zero capacity."""
        return self.capacity > 0

    def _prune_stale(self, epoch: Optional[Hashable]) -> None:
        """Drop entries from older epochs on the first probe after a bump.

        Must be called with the lock held.  The prune is monotonic: a probe
        carrying an epoch *older* than the one already observed (a session
        still serving a statement against an earlier pinned snapshot) leaves
        the cache untouched instead of evicting the newer entries.
        """
        if epoch is None or epoch == self._epoch:
            return
        if (
            isinstance(epoch, int)
            and isinstance(self._epoch, int)
            and epoch < self._epoch
        ):
            return
        stale = [
            key
            for key, (_, entry_epoch) in self._entries.items()
            if entry_epoch != epoch
        ]
        for key in stale:
            del self._entries[key]
        self.stats.stale_evictions += len(stale)
        self._epoch = epoch

    def get(
        self, key: CacheKey, epoch: Optional[Hashable] = None
    ) -> Optional["PlannedQuery"]:
        """Look up a plan, counting the probe as a hit or miss.

        ``epoch`` is the caller's current catalog epoch; passing it lets the
        cache prune entries stranded by an epoch bump before the lookup.
        """
        with self._lock:
            self._prune_stale(epoch)
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def put(
        self,
        key: CacheKey,
        planned: "PlannedQuery",
        epoch: Optional[Hashable] = None,
    ) -> None:
        """Insert (or refresh) a plan, evicting the least recently used."""
        if not self.enabled:
            return
        with self._lock:
            self._prune_stale(epoch)
            self._entries[key] = (planned, epoch)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the stats counters are kept)."""
        with self._lock:
            self._entries.clear()
