"""Cost-aware plan cache for the Connection/Cursor serving API.

Plans are cached under ``(normalized SQL, catalog epoch)``.  The normalized
SQL is the canonical rendering of the *bound* query (whitespace, keyword
case and parameter values already resolved), so an ad-hoc statement and a
prepared statement executed with the same values share one entry.  Keying on
the catalog epoch makes invalidation implicit: index creation, table DDL and
an ANALYZE whose statistics or zone maps come out different all bump the
epoch (an ANALYZE over unchanged data bumps nothing, and the
re-optimization loops' statement-local tables are not DDL and leave it
alone), so stale entries can never be served again.  They are also *pruned
eagerly*: the first probe after an epoch bump drops every entry from older
epochs (counted in :attr:`PlanCacheStats.stale_evictions`), so dead plans do
not squat in the capacity and push out live ones — a tiny cache stays fully
usable across ANALYZE/DDL churn.

Each entry also carries **text aliases**: the statement text, its name, the
``repr`` of each parameter value and the epoch, mapped to the entry and the
bound statement that text produced.  A statement whose text was served
before is answered from its alias before it is parsed, so a hit skips
parse, bind and the canonical rendering.  ``repr`` keeps ``1``, ``1.0``,
``True`` and ``'1'`` apart, since they bind to different statements.
Aliases go with their entry on eviction, stale pruning and :meth:`clear`.

Eviction is **GreedyDual** (Young; Cao & Irani): every entry holds a credit
of the cache's floor plus the cost of a miss (the plan's simulated planning
seconds), recharged on every hit.  When the cache is full, the entry with
the least credit goes and its credit becomes the new floor, so a cheap plan
goes before an expensive one used as recently, while entries nobody touches
age out as the floor rises past them.  Equal credits go least recently used
first, so equal costs behave exactly like LRU.

The cache is **thread-safe**: one process-wide instance can back every
session of the concurrent serving layer (:mod:`repro.server`).  All probes,
inserts and prunes run under an internal lock, so concurrent churn can
neither lose entries, corrupt the recency order, nor double-count stats.
Epoch pruning is additionally monotonic: a session still executing against
an *older* pinned snapshot may probe with its older epoch without clobbering
entries cached by sessions already at the newer epoch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.optimizer import PlannedQuery
    from repro.sql.binder import BoundQuery

#: Default number of plans kept per connection.
DEFAULT_PLAN_CACHE_SIZE = 64

#: Text aliases one entry keeps; the oldest goes first.  Bounds what clients
#: sending one statement under many spellings can pin.
MAX_ALIASES_PER_ENTRY = 8

CacheKey = Tuple[Hashable, ...]
#: A text alias and the bound statement its text produced.
Alias = Tuple[Hashable, "BoundQuery"]


@dataclass
class PlanCacheStats:
    """Hit/miss accounting exposed on :class:`~repro.engine.connection.Connection`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Entries dropped because the catalog epoch moved past them (they could
    #: never hit again), as opposed to capacity ``evictions``.
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


class _Entry:
    """One cached plan, its GreedyDual credit and its text aliases."""

    __slots__ = ("planned", "epoch", "cost", "credit", "aliases")

    def __init__(self, planned: "PlannedQuery", epoch: Optional[Hashable], cost: float) -> None:
        self.planned = planned
        self.epoch = epoch
        self.cost = cost
        #: Set by :meth:`PlanCache._touch`: the floor plus ``cost``.
        self.credit = 0.0
        #: Alias key -> the bound statement that text produced, oldest first.
        self.aliases: Dict[Hashable, "BoundQuery"] = {}


class PlanCache:
    """A bounded, cost-aware mapping of cache keys to planned queries."""

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        if capacity < 0:
            raise ValueError("plan cache capacity must be non-negative")
        self.capacity = capacity
        self.stats = PlanCacheStats()
        # Least recently used first: the tie-break among equal credits.
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        #: Alias key -> the key of the entry that owns it.
        self._aliases: Dict[Hashable, CacheKey] = {}
        #: GreedyDual's floor: the credit of the last entry evicted.
        self._floor = 0.0
        self._epoch: Optional[Hashable] = None
        # Guards every field above: get/put interleave dict probes with
        # reordering and eviction, which concurrent sessions would corrupt
        # (lost entries, dangling aliases, double-counted stats) without
        # mutual exclusion.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def enabled(self) -> bool:
        """False when the cache was configured with zero capacity."""
        return self.capacity > 0

    @property
    def alias_count(self) -> int:
        """Number of text aliases held across all entries."""
        with self._lock:
            return len(self._aliases)

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
        stale = [key for key, entry in self._entries.items() if entry.epoch != epoch]
        for key in stale:
            self._drop(key)
        self.stats.stale_evictions += len(stale)
        self._epoch = epoch

    def _drop(self, key: CacheKey) -> _Entry:
        """Remove one entry and its aliases (lock held)."""
        entry = self._entries.pop(key)
        for alias_key in entry.aliases:
            del self._aliases[alias_key]
        return entry

    def _touch(self, key: CacheKey, entry: _Entry, alias: Optional[Alias]) -> None:
        """Recharge ``entry``, mark it most recent and attach ``alias`` (lock held)."""
        entry.credit = self._floor + entry.cost
        self._entries.move_to_end(key)
        if alias is None:
            return
        alias_key, bound = alias
        entry.aliases[alias_key] = bound
        self._aliases[alias_key] = key
        if len(entry.aliases) > MAX_ALIASES_PER_ENTRY:
            oldest = next(iter(entry.aliases))
            del entry.aliases[oldest], self._aliases[oldest]

    def get_alias(
        self, alias_key: Hashable, epoch: Optional[Hashable] = None
    ) -> Optional[Tuple["BoundQuery", "PlannedQuery"]]:
        """Look up a statement by its text alias, before it is parsed.

        A hit is counted and returns the bound statement and its plan.  A
        miss is *not* counted: the caller goes on to parse, bind and probe
        :meth:`get`, which counts the statement once.
        """
        with self._lock:
            self._prune_stale(epoch)
            key = self._aliases.get(alias_key)
            if key is None:
                return None
            entry = self._entries[key]
            self._touch(key, entry, None)
            self.stats.hits += 1
            return entry.aliases[alias_key], entry.planned

    def get(
        self,
        key: CacheKey,
        epoch: Optional[Hashable] = None,
        alias: Optional[Alias] = None,
    ) -> Optional["PlannedQuery"]:
        """Look up a plan, counting the probe as a hit or miss.

        ``epoch`` is the caller's current catalog epoch; passing it lets the
        cache prune entries stranded by an epoch bump before the lookup.
        ``alias`` (alias key, bound statement) is attached to the entry on a
        hit, so the same text hits :meth:`get_alias` next time.
        """
        with self._lock:
            self._prune_stale(epoch)
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._touch(key, entry, alias)
            self.stats.hits += 1
            return entry.planned

    def put(
        self,
        key: CacheKey,
        planned: "PlannedQuery",
        epoch: Optional[Hashable] = None,
        cost: float = 0.0,
        alias: Optional[Alias] = None,
    ) -> None:
        """Insert (or refresh) a plan whose miss cost ``cost``.

        When the cache is full, the entry with the least credit is evicted
        first (the least recently used among equals) and the floor rises to
        its credit.
        """
        if not self.enabled:
            return
        with self._lock:
            self._prune_stale(epoch)
            entry = self._entries.get(key)
            if entry is None:
                while len(self._entries) >= self.capacity:
                    victim = min(self._entries, key=lambda k: self._entries[k].credit)
                    self._floor = self._drop(victim).credit
                    self.stats.evictions += 1
                entry = self._entries[key] = _Entry(planned, epoch, cost)
            else:
                entry.planned, entry.epoch, entry.cost = planned, epoch, cost
            self._touch(key, entry, alias)

    def clear(self) -> None:
        """Drop every entry, alias and credit (the stats counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._aliases.clear()
            self._floor = 0.0
