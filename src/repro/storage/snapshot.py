"""Copy-on-write snapshot views over tables (the storage half of MVCC).

The serving layer (:mod:`repro.server`) pins a snapshot of every base table
at statement start so readers never block — and are never torn by — a
concurrent ANALYZE, bulk load or DDL running on the shared
:class:`~repro.engine.database.Database`.  A snapshot captures, per shard and
under the catalog lock:

* the **row count** at pin time,
* references to the sealed segments and the open backing column lists, and
* a private copy of the zone map, if the shard keeps one (recomputed first
  when a bulk append left it behind the shard).

Nothing is copied or decoded up front.  A sealed segment is immutable — an
append after sealing replaces it with a reopened plain list, it never
mutates it — so the snapshot shares it by reference and keeps segment
skipping and the compressed-domain kernels.  An open list only ever grows
(the sole truncation path is the bulk-load rollback, which restores a
pre-load length that is necessarily >= any pinned count), so its first
``row_count`` elements are immutable; the snapshot slices one exact
pinned-length copy per open column on that column's first read and serves
it from then on.  The slice is mandatory, not an optimization detail: scan
consumers such as the shard gather extend the returned lists without a
length bound, so handing out a still-growing shared list would leak rows
appended after the pin into a reader's result.

Snapshots are read-only: every mutator raises
:class:`~repro.errors.StorageError`.  Statement-local writable state (the
re-optimizer's temporary tables) is created as fresh ordinary tables on the
session's catalog snapshot instead.
"""

from __future__ import annotations

from typing import List

from repro.errors import StorageError
from repro.storage.partition import ColumnZone, Partition, ZoneMap
from repro.storage.table import Table

__all__ = ["PartitionSnapshot", "SnapshotTable"]


def _read_only(name: str) -> StorageError:
    return StorageError(
        f"table {name!r} is a pinned snapshot and cannot be written; "
        "mutations go through the shared database"
    )


def _copy_zone_map(zone_map: ZoneMap, row_count: int) -> ZoneMap:
    """A private zone-map copy, detached from the writer's in-place updates."""
    return ZoneMap(
        row_count=row_count,
        columns={
            name: ColumnZone(zone.minimum, zone.maximum, zone.null_count, zone.has_nan)
            for name, zone in zone_map.columns.items()
        },
    )


class PartitionSnapshot(Partition):
    """Read-only view of one shard at pin time.

    Subclasses :class:`Partition` so the shard-level scan paths (segment
    skipping, compressed-domain kernels, the reference engine's per-shard
    iteration) work unchanged.
    """

    def __init__(self, base: Partition) -> None:
        self.schema = base.schema
        self.index = base.index
        # Count first: appends extend the columns before bumping it, so the
        # pinned count never covers a torn row.
        self._row_count = base.row_count
        self._source = list(base._plain)
        self._segments = list(base._segments)
        self._plain = [None] * len(base.schema.columns)
        zone_map = base.zone_map
        self._zone_map = None if zone_map is None else _copy_zone_map(zone_map, self._row_count)

    def column_at(self, position: int) -> List[object]:
        """One column's pinned values: the shared segment's decode, or an
        exact pinned-length copy of the open list, sliced on first read.

        ``list[:n]`` is atomic under the GIL and the captured lists never
        shrink below the pinned count, so no lock is needed; concurrent
        first readers may both slice, which is benign.
        """
        segment = self._segments[position]
        if segment is not None:
            return segment.values()
        pinned = self._plain[position]
        if pinned is None:
            pinned = self._plain[position] = self._source[position][: self._row_count]
        return pinned

    # -- mutators (rejected) -------------------------------------------------

    def append_row(self, values) -> None:
        raise _read_only(self.schema.name)

    def append_columns(self, columns) -> None:
        raise _read_only(self.schema.name)

    def truncate(self, length: int) -> None:
        raise _read_only(self.schema.name)

    def compress(self, codec: str = "auto") -> None:
        raise _read_only(self.schema.name)

    def refresh_zone_map(self, zones=None) -> bool:
        # Nothing to refresh without a zone map; a pinned one is read-only.
        if self._zone_map is not None:
            raise _read_only(self.schema.name)
        return False


class SnapshotTable(Table):
    """Read-only view of a :class:`~repro.storage.table.Table` at pin time.

    Must be built with the owning catalog's lock held so the captured row
    counts, column references and zone maps are mutually consistent.  Every
    inherited read path (``column_data``, ``row``, zone maps, routing) works
    on the pinned shard snapshots.
    """

    def __init__(self, base: Table) -> None:
        # Deliberately not calling super().__init__: it would allocate empty
        # shards. The snapshot wraps pinned views of the existing ones.
        self.schema = base.schema
        self.spec = base.spec
        self._partitions = [
            PartitionSnapshot(partition) for partition in base.partitions()
        ]
        self._row_count = sum(p.row_count for p in self._partitions)
        self._invalidate()

    # -- mutators (rejected) -------------------------------------------------

    def insert_row(self, values) -> int:
        raise _read_only(self.name)

    def load_columns(self, columns) -> int:
        raise _read_only(self.name)

    def compress(self, codec: str = "auto") -> None:
        raise _read_only(self.name)
