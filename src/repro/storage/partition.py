"""Table shards: the columnar :class:`Partition`, its zone map, routing.

Every :class:`~repro.storage.table.Table` stores its rows in one or more
:class:`Partition` shards.  A shard is columnar: one value list — or one
sealed compressed :class:`~repro.storage.compression.Segment` — per column.
A shard of a table whose schema carries a
:class:`~repro.catalog.schema.PartitionSpec` also keeps a :class:`ZoneMap`
(per-column min/max/null-count plus the shard row count).  ANALYZE installs
it from the occurrence counts it takes of the shard's columns and a single
row append folds into it; a bulk append leaves it behind the shard, and the
first read then recomputes it from the column counts as ANALYZE does, so
set-up takes each value's min/max once.  The one shard of an unpartitioned
table keeps none, since nothing routes to it or prunes it.

Routing is deterministic across processes: :func:`stable_hash` avoids
Python's per-process string-hash randomization, and NULL partition keys
always route to partition 0.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.catalog.schema import TableSchema
from repro.storage.column import holds_nan, value_range
from repro.storage.compression import Segment, encode_segment

__all__ = [
    "ColumnZone",
    "Partition",
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
    when the partition holds no non-NULL value for the column.  ``has_nan``
    records a NaN among them: a NaN orders with nothing, so the extremes of
    such a zone bound nothing and only its ``null_count`` may be reasoned
    with.
    """

    minimum: Optional[object] = None
    maximum: Optional[object] = None
    null_count: int = 0
    has_nan: bool = False

    def note_many(self, values: List[object]) -> None:
        """Fold a run of appended values into the zone.

        The running extremes lead the comparison, so the first of equal
        values wins, and folding a column in parts equals folding it whole.
        """
        self.minimum, self.maximum, nulls = value_range(
            values, self.minimum, self.maximum
        )
        self.null_count += nulls
        if not self.has_nan:
            self.has_nan = holds_nan(values, self.minimum, self.maximum)

    @classmethod
    def from_counts(cls, counts: Mapping[object, int]) -> "ColumnZone":
        """The zone of the values ``counts`` counted in storage order.

        Equal to :meth:`note_many` over those values: the distinct keys, in
        first-appearance order and as first-appearing objects, fold to the
        same extremes, since a repeat of an earlier value never moves a
        running minimum or maximum (NaN or not).
        """
        keys = list(counts)
        low, high, _ = value_range(keys)
        return cls(low, high, counts.get(None, 0), holds_nan(keys, low, high))


@dataclass
class ZoneMap:
    """Per-partition synopsis: row count plus one :class:`ColumnZone` each.

    Installed by ANALYZE from the shard's column counts
    (:meth:`ColumnZone.from_counts`), and recomputed the same way on the
    first read after a bulk append left it behind (``row_count`` short of
    the shard's); the planner prunes partitions whose zones contradict
    pushed-down filters, and the selectivity estimator uses the surviving
    row counts as a hard upper bound on scan cardinality.
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
    """One columnar shard of a table.

    Columns live either as plain value lists (the open, appendable state)
    or as sealed compressed segments after :meth:`compress`.  Appending to
    a sealed column transparently decodes it back to plain storage first;
    a sealed segment itself is never mutated, only replaced.  ``zone_map``
    is ``None`` for the shard of an unpartitioned table.
    """

    def __init__(self, schema: TableSchema, index: int) -> None:
        self.schema = schema
        self.index = index
        self._plain: List[Optional[List[object]]] = [[] for _ in schema.columns]
        self._segments: List[Optional[Segment]] = [None] * len(schema.columns)
        self._row_count = 0
        self._zone_map: Optional[ZoneMap] = None
        if schema.partition_spec is not None:
            self._zone_map = ZoneMap(
                columns={col.name: ColumnZone() for col in schema.columns}
            )

    @property
    def row_count(self) -> int:
        """Number of rows stored in this shard."""
        return self._row_count

    def __len__(self) -> int:
        return self._row_count

    @property
    def zone_map(self) -> Optional[ZoneMap]:
        """The shard's zone map (``None`` when unpartitioned), recomputed
        from the column counts on the first read after a bulk append."""
        zone_map = self._zone_map
        if zone_map is not None and zone_map.row_count != self._row_count:
            self.refresh_zone_map()
            zone_map = self._zone_map
        return zone_map

    @property
    def compressed(self) -> bool:
        """Whether any column of the shard is currently segment-encoded."""
        return any(segment is not None for segment in self._segments)

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
        zone_map = self._zone_map
        if zone_map is not None and zone_map.row_count == self._row_count:
            for col, value in zip(self.schema.columns, values):
                zone_map.columns[col.name].note_many([value])
            zone_map.row_count += 1
        self._row_count += 1

    def append_columns(self, columns: Sequence[List[object]]) -> None:
        """Append coerced rows given column-wise (one list per schema column)."""
        for position, values in enumerate(columns):
            self._writable(position).extend(values)
        self._row_count += len(columns[0])

    def adopt(self, columns: Sequence[List[object]], row_count: int) -> None:
        """Make ``columns`` themselves this empty shard's storage (no copy)."""
        self._plain = list(columns)
        self._row_count = row_count

    def truncate(self, length: int) -> None:
        """Roll the shard back to ``length`` rows (bulk-load rollback)."""
        for position in range(len(self.schema.columns)):
            del self._writable(position)[length:]
        self._row_count = length
        self.refresh_zone_map()

    def column_data(self) -> List[List[object]]:
        """Decoded value lists of all columns, in schema order (read-only)."""
        return [self.column_at(position) for position in range(len(self.schema.columns))]

    def segment_at(self, position: int) -> Optional[Segment]:
        """The sealed segment of one column, or ``None`` while it is open."""
        return self._segments[position]

    def column_at(self, position: int) -> List[object]:
        """Decoded values of one column by schema position (read-only view).

        Touches only the requested column: a sealed column decodes through
        its (cached) segment, an open column hands out its backing list.
        """
        segment = self._segments[position]
        if segment is not None:
            return segment.values()
        return self._plain[position]

    def column_values(self, name: str) -> List[object]:
        """Decoded values of one column (read-only view)."""
        return self.column_at(self.schema.column_index(name))

    def row_at(self, local: int) -> Tuple[object, ...]:
        """The row at local position ``local``, as a packed tuple.

        A sealed column answers through its segment's selective gather, so
        a point read never forces a whole-column decode.
        """
        return tuple(
            self.column_at(position)[local] if segment is None else segment.gather((local,))[0]
            for position, segment in enumerate(self._segments)
        )

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

    def column_counts(
        self, position: int, zones: Optional[Dict[str, ColumnZone]] = None
    ) -> Counter:
        """The occurrence :class:`Counter` of the column at ``position``.

        Counted in storage order, so it keeps the values' first-appearance
        order and first-appearing key objects; NULLs count under ``None``.
        A sealed column is counted through its segment
        (:meth:`~repro.storage.compression.Segment.value_counts`), which
        decodes nothing.  A shard with a zone map also records the column's
        :meth:`ColumnZone.from_counts` in ``zones`` (by column name) when
        given, for :meth:`refresh_zone_map`.
        """
        segment = self._segments[position]
        if segment is not None:
            counts = segment.value_counts()
        else:
            counts = Counter(self.column_at(position))
        if zones is not None and self._zone_map is not None:
            zones[self.schema.columns[position].name] = ColumnZone.from_counts(counts)
        return counts

    def refresh_zone_map(self, zones: Optional[Dict[str, ColumnZone]] = None) -> bool:
        """Recompute the zone map exactly from the column counts (ANALYZE).

        ``zones`` holds every column's zone as :meth:`column_counts` records
        them, in schema order; counted here, one column at a time, when
        ``None``.  Returns whether the new zone map differs from the one it
        replaced; one left behind by a bulk append counts as changed without
        being recomputed first, since no reader has seen it.
        """
        previous = self._zone_map
        if previous is None:
            return False
        if zones is None:
            zones = {}
            for position in range(len(self.schema.columns)):
                self.column_counts(position, zones)
        zone_map = self._zone_map = ZoneMap(row_count=self._row_count, columns=zones)
        return previous.row_count != self._row_count or zone_map != previous
