"""Partitioned columnar tables: hash/range shards, zone maps, compression.

A :class:`PartitionedTable` stores a table whose schema carries a
:class:`~repro.catalog.schema.PartitionSpec` as a list of
:class:`Partition` shards.  Each shard is itself columnar (one value list —
or one sealed compressed :class:`~repro.storage.compression.Segment` — per
column) and maintains a :class:`ZoneMap` (per-column min/max/null-count
plus the shard row count) incrementally on every append; ANALYZE refreshes
the maps from scratch.

The class exposes the full read surface of
:class:`~repro.storage.table.Table` — ``column_data``, ``column_values``,
``row``, ``iter_rows``, ``estimated_pages`` — so the catalog, statistics,
indexes and all three execution engines work unchanged.  **Global row ids
are partition-gather order**: partition 0's rows first, then partition 1's,
and so on.  Every gathering accessor uses that same order, so hash indexes
built from :meth:`column_values` resolve through :meth:`row` consistently,
and a scan that concatenates unpruned partitions in partition order is
deterministic for every engine.

Routing is deterministic across processes: :func:`stable_hash` avoids
Python's per-process string-hash randomization, and NULL partition keys
always route to partition 0.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import PartitionSpec, TableSchema
from repro.errors import StorageError
from repro.storage.column import checked_value, checked_values, value_range
from repro.storage.compression import Segment, encode_segment

__all__ = [
    "ColumnZone",
    "Partition",
    "PartitionedTable",
    "ZoneMap",
    "stable_hash",
]


def stable_hash(value: object) -> int:
    """A deterministic, process-stable hash for partition routing.

    Python's built-in ``hash`` of strings is randomized per process, which
    would make partition contents (and thus row order) irreproducible.
    Integers map through a simple mask; everything else (strings, floats,
    composite keys) hashes the CRC32 of its ``repr``.
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        return value & 0xFFFFFFFF
    return zlib.crc32(repr(value).encode("utf-8"))


@dataclass
class ColumnZone:
    """Zone-map entry for one column of one partition.

    ``minimum``/``maximum`` cover the non-NULL values only and are ``None``
    when the partition holds no non-NULL value for the column.
    """

    minimum: Optional[object] = None
    maximum: Optional[object] = None
    null_count: int = 0

    def note(self, value: object) -> None:
        """Fold one appended value into the zone."""
        if value is None:
            self.null_count += 1
            return
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def note_many(self, values: List[object]) -> None:
        """Fold a run of appended values into the zone.

        Same zone as :meth:`note` on each value in order: the running
        extremes lead the comparison, so the first of equal values wins.
        """
        self.minimum, self.maximum, nulls = value_range(
            values, self.minimum, self.maximum
        )
        self.null_count += nulls


@dataclass
class ZoneMap:
    """Per-partition synopsis: row count plus one :class:`ColumnZone` each.

    Maintained incrementally on load and recomputed on ANALYZE; the planner
    prunes partitions whose zones contradict pushed-down filters, and the
    selectivity estimator uses the surviving row counts as a hard upper
    bound on scan cardinality.
    """

    row_count: int = 0
    columns: Dict[str, ColumnZone] = field(default_factory=dict)

    def zone(self, column: str) -> ColumnZone:
        """The zone of ``column`` (empty zones for untracked columns)."""
        existing = self.columns.get(column)
        if existing is None:
            existing = self.columns[column] = ColumnZone()
        return existing

    def non_null_count(self, column: str) -> int:
        """Rows of the partition whose ``column`` value is non-NULL."""
        return self.row_count - self.zone(column).null_count


class Partition:
    """One columnar shard of a partitioned table.

    Columns live either as plain value lists (the open, appendable state)
    or as sealed compressed segments after :meth:`compress`.  Appending to
    a sealed column transparently decodes it back to plain storage first.
    """

    def __init__(self, schema: TableSchema, index: int) -> None:
        self.schema = schema
        self.index = index
        self._plain: List[Optional[List[object]]] = [[] for _ in schema.columns]
        self._segments: List[Optional[Segment]] = [None] * len(schema.columns)
        self._row_count = 0
        self.zone_map = ZoneMap(row_count=0)
        for col in schema.columns:
            self.zone_map.columns[col.name] = ColumnZone()

    @property
    def row_count(self) -> int:
        """Number of rows stored in this shard."""
        return self._row_count

    def __len__(self) -> int:
        return self._row_count

    @property
    def compressed(self) -> bool:
        """Whether any column of the shard is currently segment-encoded."""
        return any(segment is not None for segment in self._segments)

    def codecs(self) -> Tuple[str, ...]:
        """Per-column codec names (``"plain"`` for open columns)."""
        return tuple(
            segment.codec if segment is not None else "plain"
            for segment in self._segments
        )

    def _writable(self, position: int) -> List[object]:
        values = self._plain[position]
        if values is None:
            # Decompress-on-write: appends after sealing reopen the column.
            segment = self._segments[position]
            values = self._plain[position] = list(segment.values())
            self._segments[position] = None
        return values

    def append_row(self, values: Sequence[object]) -> None:
        """Append one coerced row (values already validated by the table)."""
        for position, value in enumerate(values):
            self._writable(position).append(value)
            self.zone_map.columns[self.schema.columns[position].name].note(value)
        self._row_count += 1
        self.zone_map.row_count = self._row_count

    def append_columns(self, columns: Sequence[List[object]]) -> None:
        """Append coerced rows given column-wise (one list per schema column)."""
        for position, values in enumerate(columns):
            self._writable(position).extend(values)
            self.zone_map.columns[self.schema.columns[position].name].note_many(
                values
            )
        self._row_count += len(columns[0])
        self.zone_map.row_count = self._row_count

    def truncate(self, length: int) -> None:
        """Roll the shard back to ``length`` rows (bulk-load rollback)."""
        for position in range(len(self.schema.columns)):
            del self._writable(position)[length:]
        self._row_count = length
        self.refresh_zone_map()

    def column_data(self) -> List[List[object]]:
        """Decoded value lists of all columns, in schema order.

        Sealed columns decode lazily (cached inside the segment); open
        columns hand out their backing list.  Treat as read-only.
        """
        out: List[List[object]] = []
        for position in range(len(self.schema.columns)):
            segment = self._segments[position]
            if segment is not None:
                out.append(segment.values())
            else:
                out.append(self._plain[position])
        return out

    def segment_at(self, position: int) -> Optional[Segment]:
        """The sealed segment of one column, or ``None`` while it is open."""
        return self._segments[position]

    def column_at(self, position: int) -> List[object]:
        """Decoded values of one column by schema position (read-only view).

        Touches only the requested column: a sealed column decodes through
        its (cached) segment, an open column hands out its backing list.
        Snapshot subclasses that store neither fall back to the full
        ``column_data`` pin.
        """
        segment = self._segments[position]
        if segment is not None:
            return segment.values()
        values = self._plain[position]
        if values is not None:
            return values
        return self.column_data()[position]

    def column_values(self, name: str) -> List[object]:
        """Decoded values of one column (read-only view)."""
        return self.column_at(self.schema.column_index(name))

    def iter_rows(self) -> Iterator[Tuple[object, ...]]:
        """Iterate the shard's rows as packed tuples, in storage order."""
        data = self.column_data()
        for row_id in range(self._row_count):
            yield tuple(column[row_id] for column in data)

    def compress(self, codec: str = "auto") -> None:
        """Seal every column into a compressed segment."""
        for position in range(len(self.schema.columns)):
            if self._segments[position] is None:
                self._segments[position] = encode_segment(
                    self._plain[position], codec=codec
                )
                self._plain[position] = None

    def refresh_zone_map(self) -> ZoneMap:
        """Recompute the zone map exactly from the stored values (ANALYZE)."""
        zone_map = ZoneMap(row_count=self._row_count)
        for col, values in zip(self.schema.columns, self.column_data()):
            zone = zone_map.columns[col.name] = ColumnZone()
            zone.note_many(values)
        self.zone_map = zone_map
        return zone_map


class PartitionedTable:
    """Columnar storage split into hash- or range-partitioned shards.

    Duck-type compatible with :class:`~repro.storage.table.Table` for every
    read path the engine uses; see the module docstring for the global
    row-id convention.
    """

    def __init__(self, schema: TableSchema) -> None:
        if schema.partition_spec is None:
            raise StorageError(
                f"table {schema.name!r} has no partition spec; use Table instead"
            )
        self.schema = schema
        self.spec: PartitionSpec = schema.partition_spec
        self._partitions = [
            Partition(schema, i) for i in range(self.spec.num_partitions)
        ]
        self._key_position = schema.column_index(self.spec.column)
        self._row_count = 0
        self._offsets: Optional[List[int]] = None
        self._gathered: Optional[List[List[object]]] = None
        self._gathered_cols: Dict[int, List[object]] = {}

    # -- basic surface -------------------------------------------------------

    @property
    def name(self) -> str:
        """Table name (from the schema)."""
        return self.schema.name

    @property
    def row_count(self) -> int:
        """Number of rows across all partitions."""
        return self._row_count

    def __len__(self) -> int:
        return self._row_count

    def partitions(self) -> List[Partition]:
        """All shards, in partition order (read-only)."""
        return self._partitions

    @property
    def num_partitions(self) -> int:
        """Number of shards."""
        return len(self._partitions)

    def zone_map(self, index: int) -> ZoneMap:
        """The zone map of partition ``index``."""
        return self._partitions[index].zone_map

    def scanned_rows(self, pruned: Sequence[int] = ()) -> int:
        """Rows a scan skipping the ``pruned`` partitions reads from storage."""
        skip = set(pruned)
        return sum(
            partition.row_count
            for i, partition in enumerate(self._partitions)
            if i not in skip
        )

    # -- routing -------------------------------------------------------------

    def route(self, key: object) -> int:
        """Partition index a (coerced) partition-key value belongs to."""
        if key is None:
            return 0
        if self.spec.method == "hash":
            return stable_hash(key) % len(self._partitions)
        try:
            return bisect_right(self.spec.bounds, key)
        except TypeError as exc:
            raise StorageError(
                f"partition key {key!r} is not comparable with the range "
                f"bounds of table {self.name!r}"
            ) from exc

    def _route_all(self, keys: Sequence[object]) -> List[int]:
        """Partition of every key: range bounds by one C-level map."""
        if self.spec.method == "range":
            try:
                return list(map(partial(bisect_right, self.spec.bounds), keys))
            except TypeError:
                pass  # a NULL or incomparable key: route row by row
        return list(map(self.route, keys))

    # -- mutation ------------------------------------------------------------

    def _invalidate(self) -> None:
        self._offsets = None
        self._gathered = None
        self._gathered_cols = {}

    def _coerce_row(self, values: Sequence[object]) -> List[object]:
        if len(values) != len(self.schema.columns):
            raise StorageError(
                f"table {self.name!r} expects {len(self.schema.columns)} values, "
                f"got {len(values)}"
            )
        return [
            checked_value(col_def, value)
            for col_def, value in zip(self.schema.columns, values)
        ]

    def insert_row(self, values: Sequence[object]) -> int:
        """Insert one row, returning its current global row id.

        Global ids are partition-gather positions, so ids of rows in later
        partitions shift when earlier partitions grow; build indexes only
        after loading (``finalize_load`` order), as the engine does.
        """
        coerced = self._coerce_row(values)
        target = self.route(coerced[self._key_position])
        partition = self._partitions[target]
        partition.append_row(coerced)
        self._row_count += 1
        self._invalidate()
        offset = sum(p.row_count for p in self._partitions[:target])
        return offset + partition.row_count - 1

    def insert_rows(self, rows) -> int:
        """Insert many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert_row(row)
            count += 1
        return count

    def row_values_from_dict(self, row: Dict[str, object]) -> List[object]:
        """Order a ``{column: value}`` dict into schema order (missing → NULL)."""
        names = self.schema.column_names
        unknown = set(row) - set(names)
        if unknown:
            raise StorageError(
                f"unknown columns {sorted(unknown)} for table {self.name!r}"
            )
        return [row.get(name) for name in names]

    def insert_dicts(self, rows) -> int:
        """Insert rows given as ``{column: value}`` dictionaries."""
        count = 0
        for row in rows:
            self.insert_row(self.row_values_from_dict(row))
            count += 1
        return count

    def load_columns(self, columns: Sequence[Sequence[object]]) -> int:
        """Append rows given column-wise, routing each row to its shard.

        Column-wise throughout: every column is validated as a whole
        (:func:`~repro.storage.column.checked_values`), the key column is
        routed in one pass, rows are grouped by shard with one stable sort,
        and each shard receives its part of every column in one append — a
        slice when its rows are contiguous.  Atomic like
        :meth:`Table.load_columns`: a rejected value or key leaves every
        partition unchanged.
        """
        if len(columns) != len(self.schema.columns):
            raise StorageError(
                f"table {self.name!r} expects {len(self.schema.columns)} columns, "
                f"got {len(columns)}"
            )
        lengths = {len(values) for values in columns}
        if len(lengths) > 1:
            raise StorageError(
                f"column-wise load into {self.name!r} got ragged columns "
                f"of lengths {sorted(lengths)}"
            )
        count = lengths.pop() if lengths else 0
        checked = [
            checked_values(col_def, values)
            for col_def, values in zip(self.schema.columns, columns)
        ]
        shard_of = self._route_all(checked[self._key_position])
        order = sorted(range(count), key=shard_of.__getitem__)
        before = [partition.row_count for partition in self._partitions]
        try:
            start = 0
            for shard, size in sorted(Counter(shard_of).items()):
                rows = order[start : start + size]
                start += size
                first, last = rows[0], rows[-1]
                if last - first + 1 == size:
                    part = [values[first : last + 1] for values in checked]
                else:
                    part = [list(map(values.__getitem__, rows)) for values in checked]
                self._partitions[shard].append_columns(part)
        except BaseException:
            for partition, length in zip(self._partitions, before):
                partition.truncate(length)
            raise
        finally:
            self._invalidate()
        self._row_count += count
        return count

    # -- gathered reads (global row-id order) --------------------------------

    def _partition_offsets(self) -> List[int]:
        """Prefix row offsets of each partition (gather order)."""
        if self._offsets is None:
            offsets: List[int] = []
            total = 0
            for partition in self._partitions:
                offsets.append(total)
                total += partition.row_count
            self._offsets = offsets
        return self._offsets

    def column_data(self) -> List[List[object]]:
        """Gathered value lists of all columns, in schema order.

        The gather (partition order) is materialized once and cached until
        the next mutation; callers must treat the lists as read-only, like
        :meth:`Table.column_data`.
        """
        if self._gathered is None:
            gathered: List[List[object]] = [[] for _ in self.schema.columns]
            for partition in self._partitions:
                for position, values in enumerate(partition.column_data()):
                    gathered[position].extend(values)
            self._gathered = gathered
        return self._gathered

    def gathered_column(self, position: int) -> List[object]:
        """One column's gathered values by schema position (read-only view).

        Unlike :meth:`column_data`, this gathers — and caches — only the
        requested column, so a projection-pushed scan of two columns never
        pays for a full-width gather.  The full-gather cache is reused when
        it already exists.
        """
        gathered = self._gathered
        if gathered is not None:
            return gathered[position]
        cached = self._gathered_cols.get(position)
        if cached is None:
            cached = []
            for partition in self._partitions:
                cached.extend(partition.column_at(position))
            self._gathered_cols[position] = cached
        return cached

    def column_values(self, name: str) -> List[object]:
        """Gathered values of one column (a fresh list, safe to mutate)."""
        return list(self.gathered_column(self.schema.column_index(name)))

    def row(self, row_id: int) -> Tuple[object, ...]:
        """The packed tuple at a global (partition-gather order) row id."""
        if not 0 <= row_id < self._row_count:
            raise StorageError(
                f"row id {row_id} out of range for table {self.name!r}"
            )
        offsets = self._partition_offsets()
        index = bisect_right(offsets, row_id) - 1
        partition = self._partitions[index]
        local = row_id - offsets[index]
        data = partition.column_data()
        return tuple(column[local] for column in data)

    def value(self, row_id: int, column: str) -> object:
        """Return a single cell value at a global row id."""
        return self.row(row_id)[self.schema.column_index(column)]

    def iter_rows(self) -> Iterator[Tuple[object, ...]]:
        """Iterate all rows as packed tuples, partition by partition."""
        for partition in self._partitions:
            yield from partition.iter_rows()

    def iter_row_ids(self) -> Iterator[int]:
        """Iterate all global row ids in gather order."""
        return iter(range(self._row_count))

    def estimated_pages(self, rows_per_page: int = 100) -> int:
        """Crude page-count estimate used by the cost model."""
        if self._row_count == 0:
            return 1
        return (self._row_count + rows_per_page - 1) // rows_per_page

    # -- maintenance ---------------------------------------------------------

    def compress(self, codec: str = "auto") -> None:
        """Seal every partition's columns into compressed segments."""
        for partition in self._partitions:
            partition.compress(codec=codec)
        # Decoded reads still flow through the cached segment decode; drop
        # the gather caches so they rebuild from the segments.
        self._gathered = None
        self._gathered_cols = {}

    def refresh_zone_maps(self) -> None:
        """Recompute every partition's zone map exactly (ANALYZE hook)."""
        for partition in self._partitions:
            partition.refresh_zone_map()
