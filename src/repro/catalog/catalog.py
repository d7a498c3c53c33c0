"""The catalog: a registry of table schemas, storage handles and statistics.

The catalog is the single object the SQL binder, the optimizer and the
executor share.  It maps table names to:

* the :class:`~repro.catalog.schema.TableSchema`,
* the storage object (a :class:`~repro.storage.table.Table`),
* the per-table statistics produced by ANALYZE
  (:class:`~repro.stats.column_stats.TableStats`), and
* any secondary indexes.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.catalog.schema import TableSchema
from repro.errors import CatalogError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.stats.column_stats import TableStats
    from repro.storage.index import Index
    from repro.storage.table import Table


class CatalogEntry:
    """Everything the engine knows about one table."""

    def __init__(
        self, schema: TableSchema, table: "Table", transient: bool = False
    ) -> None:
        self.schema = schema
        self.table = table
        self.stats: Optional["TableStats"] = None
        self.indexes: Dict[str, "Index"] = {}
        #: True for a re-optimization loop's statement-local table (see register_transient).
        self.transient = transient

    def index_on(self, column: str) -> Optional["Index"]:
        """Return an index whose key column is ``column``, if one exists."""
        return self.indexes.get(column)


class Catalog:
    """Registry of tables known to a :class:`~repro.engine.database.Database`.

    The catalog carries a monotonically increasing *epoch* that is bumped by
    every event that can invalidate a cached plan: table DDL, an ANALYZE
    whose statistics or zone maps differ from the ones it replaces, and
    index creation.  (The re-optimization loops' statement-local tables are
    not DDL: see :meth:`register_transient`.)  The plan cache keys entries on
    the epoch, so stale plans simply miss instead of needing explicit
    invalidation hooks.

    Every mutation (registration, drop, epoch bump, statistics/index
    attachment — including the transient tables of the re-optimization
    loop's handover) runs under :attr:`lock`, a reentrant lock that the
    :class:`~repro.engine.database.Database` write paths also hold across
    their compound operations.  Readers of individual entries stay lock-free
    (single dict probes are atomic); multi-entry readers that need a
    consistent point-in-time view take a snapshot via
    :meth:`~repro.engine.database.Database.snapshot` instead of locking.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, CatalogEntry] = {}
        self._epoch = 0
        #: Guards every catalog mutation; reentrant so compound Database
        #: write operations (ANALYZE over many tables, index builds) can
        #: hold it across their internal catalog calls.
        self.lock = threading.RLock()
        # Storage snapshots reused across snapshot() calls while a table's
        # identity and row count are unchanged, so the lazy pinned-column
        # copies amortize over every statement between two writes.
        self._table_snapshots: Dict[str, Tuple[object, int, object]] = {}

    @property
    def epoch(self) -> int:
        """Current catalog/statistics epoch (see class docstring)."""
        return self._epoch

    def bump_epoch(self) -> int:
        """Advance the epoch, invalidating every plan cached against it."""
        with self.lock:
            self._epoch += 1
            return self._epoch

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def table_names(self) -> List[str]:
        """Names of all registered tables, in registration order."""
        with self.lock:
            return list(self._entries)

    def register(self, schema: TableSchema, table: "Table") -> CatalogEntry:
        """Register a table.

        Raises:
            CatalogError: if a table with the same name already exists.
        """
        with self.lock:
            if schema.name in self._entries:
                raise CatalogError(f"table {schema.name!r} already exists")
            entry = CatalogEntry(schema, table)
            self._entries[schema.name] = entry
            self.bump_epoch()
            return entry

    def register_transient(self, schema: TableSchema, table: "Table") -> CatalogEntry:
        """Register a pseudo-table *without* bumping the epoch.

        A re-optimization loop hands an already-computed sub-join to the
        re-planned remainder of its query by registering it here
        mid-execution — an in-memory pseudo-table or a temporary table the
        loop drops again.  The registration is not DDL: no
        other statement can name the table (its name is generated and it is
        dropped before the query returns), so cached plans for other
        statements stay valid and the catalog epoch — which keys the plan
        cache — must not move.

        Raises:
            CatalogError: if a table with the same name already exists.
        """
        with self.lock:
            if schema.name in self._entries:
                raise CatalogError(f"table {schema.name!r} already exists")
            entry = CatalogEntry(schema, table, transient=True)
            self._entries[schema.name] = entry
            return entry

    def drop_transient(self, name: str) -> None:
        """Remove a transient pseudo-table without bumping the epoch.

        Raises:
            CatalogError: if the table does not exist or is not transient.
        """
        with self.lock:
            entry = self.entry(name)
            if not entry.transient:
                raise CatalogError(
                    f"table {name!r} is not transient; use drop() for real tables"
                )
            del self._entries[name]

    def drop(self, name: str) -> None:
        """Remove a table from the catalog.

        Raises:
            CatalogError: if the table does not exist.
        """
        with self.lock:
            if name not in self._entries:
                raise CatalogError(f"cannot drop unknown table {name!r}")
            del self._entries[name]
            self.bump_epoch()

    def entry(self, name: str) -> CatalogEntry:
        """Return the :class:`CatalogEntry` for ``name``.

        Raises:
            CatalogError: if the table does not exist.
        """
        try:
            return self._entries[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def schema(self, name: str) -> TableSchema:
        """Return the schema of table ``name``."""
        return self.entry(name).schema

    def table(self, name: str) -> "Table":
        """Return the storage object of table ``name``."""
        return self.entry(name).table

    def stats(self, name: str) -> Optional["TableStats"]:
        """Return ANALYZE statistics for ``name`` (``None`` before ANALYZE)."""
        return self.entry(name).stats

    def set_stats(self, name: str, stats: "TableStats") -> bool:
        """Attach ANALYZE statistics to table ``name``.

        Bumps the epoch, and returns True, only when ``stats`` differ from
        the statistics they replace: plans made with equal statistics stay
        valid.
        """
        with self.lock:
            entry = self.entry(name)
            changed = entry.stats != stats
            entry.stats = stats
            if changed:
                self.bump_epoch()
            return changed

    def add_index(self, table_name: str, index: "Index") -> None:
        """Register a secondary index on ``table_name`` keyed by its column.

        Bumps the epoch: an index changes the access paths available to the
        planner, so previously cached plans may no longer be optimal.
        """
        with self.lock:
            entry = self.entry(table_name)
            entry.indexes[index.column] = index
            self.bump_epoch()

    def indexes(self, table_name: str) -> Dict[str, "Index"]:
        """Return the indexes of ``table_name`` keyed by column name."""
        return self.entry(table_name).indexes

    def snapshot(self) -> "Catalog":
        """Pin a consistent point-in-time view of the whole catalog.

        Returns a :class:`~repro.catalog.snapshot.CatalogSnapshot`: the
        current epoch plus one frozen entry per (non-transient) table —
        schema and stats by reference, a private copy of the index dict,
        and a read-only storage snapshot.  Storage snapshots are reused
        across calls while a table's identity and row count are unchanged;
        transient pseudo-tables belong to a statement mid-flight on some
        other session and are excluded.
        """
        from repro.catalog.snapshot import CatalogSnapshot
        from repro.storage.snapshot import SnapshotTable

        with self.lock:
            cache: Dict[str, Tuple[object, int, object]] = {}
            frozen: Dict[str, CatalogEntry] = {}
            for name, entry in self._entries.items():
                if entry.transient:
                    continue
                table = entry.table
                prior = self._table_snapshots.get(name)
                if (
                    prior is not None
                    and prior[0] is table
                    and prior[1] == table.row_count
                ):
                    snap_table = prior[2]
                else:
                    snap_table = SnapshotTable(table)
                cache[name] = (table, table.row_count, snap_table)
                frozen_entry = CatalogEntry(entry.schema, snap_table)
                frozen_entry.stats = entry.stats
                frozen_entry.indexes = dict(entry.indexes)
                frozen[name] = frozen_entry
            self._table_snapshots = cache
            return CatalogSnapshot(self._epoch, frozen)
