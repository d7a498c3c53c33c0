"""Persistent cross-query cardinality feedback.

The paper's re-optimizer observes true cardinalities mid-query and re-plans
the *current* statement; everything it learned dies when the statement
finishes.  This module keeps those observations alive across statements and
sessions: a :class:`FeedbackStore` maps *normalized predicate/join-subtree
keys* to observed row counts, so a later query containing the same subtree —
under different aliases, with parameters bound to the same values — is
planned from truth instead of from the independence model.

Key normalization (:func:`subset_key`) is the load-bearing part.  Raw
provenance observations are keyed by frozen alias sets
(``frozenset({'t', 'mi'})``), which collide across queries: alias ``t`` may
be ``title`` in one query and ``trades`` in another.  A normalized key
instead captures everything that determines the subtree's output
cardinality and nothing else:

* the catalog *table* behind each alias (never the alias spelling),
* each alias's filter conjunction, rendered with literals inlined (planning
  happens after ``?`` parameters are substituted, so parameterized and
  literal statements normalize identically — see ``tests/test_feedback_store``),
* the equi-join edges and residual filters fully contained in the subset,

with aliases renamed to positional placeholders in a canonical order so two
self-joins of the same table keep distinct identities while alias spelling
never leaks into the key.

Entries are LRU-bounded, tagged with per-table versions so any write or
re-ANALYZE of a table lazily invalidates the feedback learned about it, and
JSON-serializable so a store survives process restarts.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.sql.ast import Column, ColumnRef, Expr, transform_expr
from repro.sql.binder import BoundQuery

#: Default LRU capacity of a store (per-database; shared by server sessions).
DEFAULT_FEEDBACK_CAPACITY = 1024

#: Format tag written into persisted stores so future layouts can migrate.
_PERSIST_VERSION = 1


def _rename_aliases(expr: Expr, mapping: Mapping[str, str]) -> Expr:
    """Rebuild ``expr`` with every column alias renamed through ``mapping``."""

    def rename(node: Expr) -> Expr:
        if isinstance(node, Column) and node.alias in mapping:
            return Column(ColumnRef(mapping[node.alias], node.column))
        return node

    return transform_expr(expr, rename)


#: Stands in for an alias while its filters are rendered once per query; the
#: placeholder a subset gives the alias is substituted into the text.
_SLOT = "\x00"


class SubsetKeys:
    """:func:`subset_key` for many subsets of one query.

    Each alias's signature and its filters' SQL text are rendered once per
    instance (i.e. per bound query), the filters with :data:`_SLOT` where the
    alias goes, instead of once per subset; the keys are the same strings.
    """

    def __init__(self, query: BoundQuery) -> None:
        self.query = query
        # alias -> (signature, filter texts around _SLOT, or None to rename per key)
        self._aliases: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], Optional[List[str]]]] = {}

    def _alias(self, alias: str):
        """Alias identity independent of its spelling — table + rendered
        filters — and its filters rendered around :data:`_SLOT`."""
        known = self._aliases.get(alias)
        if known is None:
            filters = self.query.filters_for(alias)
            texts = tuple(sorted(f.to_sql() for f in filters))
            # A filter mentions its own alias alone (the binder files one
            # over two aliases as a residual); substituting the slot is exact
            # unless a text holds the slot character already.
            slotted = None
            if not any(_SLOT in text for text in texts):
                slotted = [_rename_aliases(f, {alias: _SLOT}).to_sql() for f in filters]
            known = self._aliases[alias] = ((self.query.table_for(alias), texts), slotted)
        return known

    def key(self, subset: FrozenSet[str]) -> str:
        """Normalized key for the join subtree over ``subset`` (see :func:`subset_key`)."""
        query = self.query
        ordered = sorted(subset, key=lambda a: (self._alias(a)[0], a))
        mapping = {alias: f"r{i}" for i, alias in enumerate(ordered)}
        parts = []
        for alias in ordered:
            slotted = self._alias(alias)[1]
            if slotted is None:
                texts = [_rename_aliases(f, mapping).to_sql() for f in query.filters_for(alias)]
            else:
                texts = [text.replace(_SLOT, mapping[alias]) for text in slotted]
            filters = " AND ".join(sorted(texts))
            parts.append(f"{mapping[alias]}={query.table_for(alias)}[{filters}]")
        edges = sorted(
            "{}.{}={}.{}".format(
                *min(
                    (
                        (
                            mapping[j.left_alias],
                            j.left_column,
                            mapping[j.right_alias],
                            j.right_column,
                        ),
                        (
                            mapping[j.right_alias],
                            j.right_column,
                            mapping[j.left_alias],
                            j.left_column,
                        ),
                    )
                )
            )
            for j in query.joins
            if j.left_alias in subset and j.right_alias in subset
        )
        residuals = sorted(
            _rename_aliases(r, mapping).to_sql()
            for r in query.residuals
            if set(r.referenced_aliases()) <= subset
        )
        return "&".join(parts) + "|" + ",".join(edges) + "|" + ",".join(residuals)


def subset_key(query: BoundQuery, subset: FrozenSet[str]) -> str:
    """Normalized key for the join subtree over ``subset`` inside ``query``.

    Aliases are ordered by ``(table, rendered filters)`` and renamed to
    positional placeholders ``r0, r1, ...`` so the key depends on *what* is
    scanned and filtered, never on how the query spelled its aliases.  Ties
    (identical self-join branches) are broken by alias order, which is sound:
    the branches are interchangeable, so either assignment names the same
    subtree.
    """
    return SubsetKeys(query).key(subset)


def subset_tables(query: BoundQuery, subset: Iterable[str]) -> FrozenSet[str]:
    """The catalog tables behind ``subset``'s aliases."""
    return frozenset(query.table_for(alias) for alias in subset)


@dataclass
class FeedbackStats:
    """Hit/miss/insert counters of one store (monotonic)."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    invalidations: int = 0


class FeedbackStore:
    """Thread-safe LRU store of observed subtree cardinalities.

    One store is shared by every connection and server session of a database
    (snapshots reuse their base's store), so it carries its own lock; lookups
    and records are single-dict operations and never block on query execution.
    """

    def __init__(self, capacity: int = DEFAULT_FEEDBACK_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"feedback capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        # key -> (rows, {table: version at record time})
        self._entries: "OrderedDict[str, Tuple[float, Dict[str, int]]]" = (
            OrderedDict()
        )
        self._table_versions: Dict[str, int] = {}
        self._keys: Optional[SubsetKeys] = None
        self.stats = FeedbackStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- feedback lifecycle -------------------------------------------------

    def _key(self, query: BoundQuery, subset: FrozenSet[str]) -> str:
        # Records and lookups come in runs for one query (a statement's
        # harvest, a plan's estimates): the last query's SubsetKeys serves
        # the run.  A thread that finds another query's swaps in its own.
        keys = self._keys
        if keys is None or keys.query is not query:
            keys = self._keys = SubsetKeys(query)
        return keys.key(subset)

    def record(self, query: BoundQuery, subset: FrozenSet[str], rows: float) -> None:
        """Record an observed cardinality for a subtree of ``query``."""
        key = self._key(query, subset)
        tables = subset_tables(query, subset)
        with self._lock:
            versions = {t: self._table_versions.get(t, 0) for t in tables}
            self._entries[key] = (float(rows), versions)
            self._entries.move_to_end(key)
            self.stats.inserts += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def lookup(self, query: BoundQuery, subset: FrozenSet[str]) -> Optional[float]:
        """Observed rows for the subtree, or ``None`` (unknown or stale)."""
        key = self._key(query, subset)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            rows, versions = entry
            if any(
                self._table_versions.get(t, 0) != v for t, v in versions.items()
            ):
                # Stale: a table under this subtree changed since we learned it.
                del self._entries[key]
                self.stats.invalidations += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return rows

    def invalidate_table(self, table: str) -> None:
        """Mark every entry that depends on ``table`` stale (lazily dropped)."""
        with self._lock:
            self._table_versions[table] = self._table_versions.get(table, 0) + 1

    def clear(self) -> None:
        """Drop all entries (versions survive so staleness stays monotonic)."""
        with self._lock:
            self._entries.clear()

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist the store to ``path`` as JSON."""
        with self._lock:
            payload = {
                "version": _PERSIST_VERSION,
                "capacity": self.capacity,
                "table_versions": dict(self._table_versions),
                "entries": [
                    {"key": key, "rows": rows, "versions": versions}
                    for key, (rows, versions) in self._entries.items()
                ],
            }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def load(self, path: str) -> bool:
        """Load entries from ``path``; ``False`` (store untouched) on failure.

        A missing, unreadable or corrupt file is not an error — the store
        simply starts cold, which is always a correct (if slower) state.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if payload.get("version") != _PERSIST_VERSION:
                return False
            entries = payload["entries"]
            loaded = OrderedDict(
                (
                    str(entry["key"]),
                    (
                        float(entry["rows"]),
                        {str(t): int(v) for t, v in entry["versions"].items()},
                    ),
                )
                for entry in entries
            )
            table_versions = {
                str(t): int(v) for t, v in payload["table_versions"].items()
            }
        except (OSError, ValueError, KeyError, TypeError):
            return False
        with self._lock:
            self._table_versions.update(table_versions)
            for key, value in loaded.items():
                self._entries[key] = value
                self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return True

    def describe(self) -> str:
        """One-line summary for logs and EXPLAIN output."""
        with self._lock:
            return (
                f"feedback({len(self._entries)}/{self.capacity} entries, "
                f"{self.stats.hits} hits, {self.stats.misses} misses)"
            )
