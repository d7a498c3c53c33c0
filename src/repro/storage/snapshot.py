"""Copy-on-write snapshot views over tables (the storage half of MVCC).

The serving layer (:mod:`repro.server`) pins a snapshot of every base table
at statement start so readers never block — and are never torn by — a
concurrent ANALYZE, bulk load or DDL running on the shared
:class:`~repro.engine.database.Database`.  A snapshot captures two things
under the catalog lock:

* the **row count** at pin time, and
* references to the backing column lists.

Nothing is copied up front.  Because the storage layer only ever *appends*
(the sole truncation path is the bulk-load rollback, which restores a
pre-load length that is necessarily >= any pinned count), the first
``row_count`` elements of every captured list are immutable.  The snapshot
therefore materializes exact pinned-length lists lazily — one slice per
column on the first read — and serves them from then on.  The slice is
mandatory, not an optimization detail: scan consumers such as the
partitioned gather extend the returned lists without a length bound, so
handing out a still-growing shared list would leak rows appended after the
pin into a reader's result.

Snapshots are read-only: every mutator raises
:class:`~repro.errors.StorageError`.  Statement-local writable state (the
re-optimizer's temporary tables) is created as fresh ordinary tables on the
session's catalog snapshot instead.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import StorageError
from repro.storage.partition import (
    ColumnZone,
    Partition,
    PartitionedTable,
    ZoneMap,
)
from repro.storage.table import Table

__all__ = [
    "PartitionSnapshot",
    "PartitionedTableSnapshot",
    "TableSnapshot",
    "take_snapshot",
]


def _read_only(name: str) -> StorageError:
    return StorageError(
        f"table {name!r} is a pinned snapshot and cannot be written; "
        "mutations go through the shared database"
    )


def _pin_columns(
    source: List[List[object]], row_count: int
) -> List[List[object]]:
    """Exact pinned-length copies of the captured backing lists.

    ``list[:n]`` is atomic under the GIL and the captured lists never shrink
    below ``row_count``, so this is safe against a concurrently appending
    writer without taking any lock.
    """
    return [values[:row_count] for values in source]


def _copy_zone_map(zone_map: ZoneMap, row_count: int) -> ZoneMap:
    """A private zone-map copy, detached from the writer's in-place updates."""
    return ZoneMap(
        row_count=row_count,
        columns={
            name: ColumnZone(zone.minimum, zone.maximum, zone.null_count)
            for name, zone in zone_map.columns.items()
        },
    )


class TableSnapshot:
    """Read-only view of a :class:`~repro.storage.table.Table` at pin time.

    Duck-type compatible with the ``Table`` read surface the binder,
    statistics and both execution engines use.
    """

    def __init__(self, base: Table) -> None:
        self.schema = base.schema
        # Pin the count before touching the columns: Table appends extend
        # the columns first and bump the count last, so a count captured
        # here can never cover a torn row.
        self._row_count = base.row_count
        self._source = base.column_data()
        self._pinned: Optional[List[List[object]]] = None

    @property
    def name(self) -> str:
        """Table name (from the schema)."""
        return self.schema.name

    @property
    def row_count(self) -> int:
        """Number of rows visible to this snapshot."""
        return self._row_count

    def __len__(self) -> int:
        return self._row_count

    def column_data(self) -> List[List[object]]:
        """Pinned-length value lists of all columns, in schema order.

        Materialized lazily on first read (outside the catalog lock) and
        cached; concurrent first readers may both build the copy, which is
        benign because the results are identical.
        """
        pinned = self._pinned
        if pinned is None:
            pinned = self._pinned = _pin_columns(self._source, self._row_count)
        return pinned

    def column_values(self, name: str) -> List[object]:
        """A fresh copy of one column's pinned values (safe to mutate)."""
        return list(self.column_data()[self.schema.column_index(name)])

    def row(self, row_id: int) -> Tuple[object, ...]:
        """Return the packed tuple of values for ``row_id``."""
        if not 0 <= row_id < self._row_count:
            raise StorageError(
                f"row id {row_id} out of range for table {self.name!r}"
            )
        return tuple(column[row_id] for column in self.column_data())

    def value(self, row_id: int, column: str) -> object:
        """Return a single cell value."""
        return self.row(row_id)[self.schema.column_index(column)]

    def iter_rows(self) -> Iterator[Tuple[object, ...]]:
        """Iterate over the pinned rows as packed tuples."""
        data = self.column_data()
        for row_id in range(self._row_count):
            yield tuple(column[row_id] for column in data)

    def iter_row_ids(self) -> Iterator[int]:
        """Iterate over the pinned row ids in storage order."""
        return iter(range(self._row_count))

    def estimated_pages(self, rows_per_page: int = 100) -> int:
        """Crude page-count estimate used by the cost model."""
        if self._row_count == 0:
            return 1
        return (self._row_count + rows_per_page - 1) // rows_per_page

    # -- mutators (rejected) -------------------------------------------------

    def insert_row(self, values) -> int:
        raise _read_only(self.name)

    def insert_rows(self, rows) -> int:
        raise _read_only(self.name)

    def insert_dicts(self, rows) -> int:
        raise _read_only(self.name)

    def load_columns(self, columns) -> int:
        raise _read_only(self.name)


class PartitionSnapshot(Partition):
    """Read-only view of one shard at pin time.

    Subclasses :class:`Partition` so the shard-level scan paths (pruned
    gathers, the reference engine's per-partition iteration) work unchanged;
    ``column_data`` always returns exact pinned-length lists because the
    gather extends them without a length bound.
    """

    def __init__(self, base: Partition) -> None:
        self.schema = base.schema
        self.index = base.index
        self._row_count = base.row_count
        self._source = base.column_data()
        self._pinned: Optional[List[List[object]]] = None
        # Inherited read surface expects these; a snapshot is never sealed.
        self._plain = [None] * len(base.schema.columns)
        self._segments = [None] * len(base.schema.columns)
        # Writers update zones in place on every append, so pin a copy.
        self.zone_map = _copy_zone_map(base.zone_map, self._row_count)

    def column_data(self) -> List[List[object]]:
        """Pinned-length value lists of the shard (lazily materialized)."""
        pinned = self._pinned
        if pinned is None:
            pinned = self._pinned = _pin_columns(self._source, self._row_count)
        return pinned

    # -- mutators (rejected) -------------------------------------------------

    def append_row(self, values) -> None:
        raise _read_only(self.schema.name)

    def truncate(self, length: int) -> None:
        raise _read_only(self.schema.name)

    def compress(self, codec: str = "auto") -> None:
        raise _read_only(self.schema.name)

    def refresh_zone_map(self) -> ZoneMap:
        raise _read_only(self.schema.name)


class PartitionedTableSnapshot(PartitionedTable):
    """Read-only view of a :class:`PartitionedTable` at pin time.

    Subclasses the real table because the executor dispatches partition
    pruning on ``isinstance(storage, PartitionedTable)``; every inherited
    read path (gathered ``column_data``, ``row``, zone maps, routing) works
    on the pinned shard snapshots.
    """

    def __init__(self, base: PartitionedTable) -> None:
        # Deliberately not calling super().__init__: it would allocate empty
        # shards. The snapshot wraps pinned views of the existing ones.
        self.schema = base.schema
        self.spec = base.spec
        self._key_position = base._key_position
        self._partitions = [
            PartitionSnapshot(partition) for partition in base.partitions()
        ]
        self._row_count = sum(p.row_count for p in self._partitions)
        self._offsets = None
        self._gathered = None
        self._gathered_cols = {}

    # -- mutators (rejected) -------------------------------------------------

    def insert_row(self, values) -> int:
        raise _read_only(self.name)

    def load_columns(self, columns) -> int:
        raise _read_only(self.name)

    def compress(self, codec: str = "auto") -> None:
        raise _read_only(self.name)

    def refresh_zone_maps(self) -> None:
        raise _read_only(self.name)


def take_snapshot(table):
    """Pin a read-only snapshot of any storage object.

    Must be called with the owning catalog's lock held so the captured
    row counts, column lists and zone maps are mutually consistent.
    """
    if isinstance(table, PartitionedTable):
        return PartitionedTableSnapshot(table)
    return TableSnapshot(table)
