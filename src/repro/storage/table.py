"""In-memory columnar tables.

A :class:`Table` stores its rows in :class:`~repro.storage.partition.Partition`
shards.  A table whose schema carries a
:class:`~repro.catalog.schema.PartitionSpec` has one shard per partition,
routes every row by its key and keeps a zone map per shard; any other table
has exactly one shard, no routing and no zone maps.

**Global row ids are shard-gather order**: shard 0's rows first, then shard
1's, and so on.  Every gathering accessor uses that same order, so hash
indexes built from :meth:`Table.column_values` resolve through
:meth:`Table.row` consistently, and a scan that concatenates its unpruned
shards in order is deterministic for every engine.  With one shard there is
nothing to gather: :meth:`Table.column_data` and
:meth:`Table.gathered_column` hand out the shard's own lists.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import partial
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import TableSchema
from repro.errors import StorageError
from repro.storage.column import checked_values
from repro.storage.partition import ColumnZone, Partition, ZoneMap, stable_hash

__all__ = ["Table"]


class Table:
    """Columnar storage for one table: one or more shards."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.spec = schema.partition_spec
        shards = self.spec.num_partitions if self.spec is not None else 1
        self._partitions = [Partition(schema, i) for i in range(shards)]
        self._row_count = 0
        self._invalidate()

    @classmethod
    def adopt(
        cls, schema: TableSchema, columns: Sequence[List[object]]
    ) -> "Table":
        """A one-shard table backed by ``columns`` themselves.

        The adaptive handover path: no per-value copy and no type coercion,
        the caller guarantees both and treats the lists as the table's from
        now on.  ``schema`` carries no partition spec.

        Raises:
            StorageError: if the column count or lengths are inconsistent.
        """
        table = cls(schema)
        count = table._column_count(columns)
        table._partitions[0].adopt(columns, count)
        table._row_count = count
        return table

    # -- basic surface -------------------------------------------------------

    @property
    def name(self) -> str:
        """Table name (from the schema)."""
        return self.schema.name

    @property
    def row_count(self) -> int:
        """Number of rows across all shards."""
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

    def zone_map(self, index: int) -> Optional[ZoneMap]:
        """The zone map of shard ``index`` (``None`` when unpartitioned)."""
        return self._partitions[index].zone_map

    def scanned_rows(self, pruned: Sequence[int] = ()) -> int:
        """Rows a scan skipping the ``pruned`` shards reads from storage."""
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
        self._offsets: Optional[List[int]] = None
        self._gathered: Optional[List[List[object]]] = None
        self._gathered_cols: Dict[int, List[object]] = {}

    def _column_count(self, columns: Sequence[Sequence[object]]) -> int:
        """Rows in a column-wise input, checking its width and raggedness."""
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
        return lengths.pop() if lengths else 0

    def load_columns(self, columns: Sequence[Sequence[object]]) -> int:
        """Append rows given column-wise (one value sequence per schema column).

        Column-wise throughout: every column is validated as a whole
        (:func:`~repro.storage.column.checked_values`) and appended with one
        ``list.extend`` per shard; the input lists are copied, never adopted.
        A partitioned table routes the key column in one pass, groups rows by
        shard with one stable sort, and gives each shard its part of every
        column in one append — a slice when its rows are contiguous.  Atomic:
        a rejected value or key leaves every shard unchanged.

        Returns:
            The number of rows appended.

        Raises:
            StorageError: if the column count or lengths are inconsistent.
        """
        count = self._column_count(columns)
        checked = [
            checked_values(col_def, values)
            for col_def, values in zip(self.schema.columns, columns)
        ]
        if self.spec is None:
            parts = [(0, checked)] if count else []
        else:
            shard_of = self._route_all(
                checked[self.schema.column_index(self.spec.column)]
            )
            order = sorted(range(count), key=shard_of.__getitem__)
            parts = []
            start = 0
            for shard, size in sorted(Counter(shard_of).items()):
                rows = order[start : start + size]
                start += size
                first, last = rows[0], rows[-1]
                if last - first + 1 == size:
                    part = [values[first : last + 1] for values in checked]
                else:
                    part = [list(map(values.__getitem__, rows)) for values in checked]
                parts.append((shard, part))
        before = [partition.row_count for partition in self._partitions]
        try:
            for shard, part in parts:
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
        """Prefix row offsets of each shard (gather order)."""
        if self._offsets is None:
            offsets: List[int] = []
            total = 0
            for partition in self._partitions:
                offsets.append(total)
                total += partition.row_count
            self._offsets = offsets
        return self._offsets

    def column_data(self) -> List[List[object]]:
        """Value lists of all columns in global row-id order, schema order.

        One shard hands out its own lists; more are gathered once and cached
        until the next mutation.  Callers must treat the lists as read-only.
        """
        if len(self._partitions) == 1:
            return self._partitions[0].column_data()
        if self._gathered is None:
            gathered: List[List[object]] = [[] for _ in self.schema.columns]
            for partition in self._partitions:
                for position, values in enumerate(partition.column_data()):
                    gathered[position].extend(values)
            self._gathered = gathered
        return self._gathered

    def gathered_column(self, position: int) -> List[object]:
        """One column's values by schema position (read-only view).

        Unlike :meth:`column_data`, this gathers — and caches — only the
        requested column, so a projection-pushed scan of two columns never
        pays for a full-width gather.  The full-gather cache is reused when
        it already exists.
        """
        if len(self._partitions) == 1:
            return self._partitions[0].column_at(position)
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
        """A copy of one column's values (a fresh list, safe to mutate).

        A copy, not the backing list: handing out live storage lets caller
        mutations silently corrupt the table (and any statistics or indexes
        built over it).  Engines needing zero-copy reads use
        :meth:`column_data` and treat the lists as read-only.
        """
        return list(self.gathered_column(self.schema.column_index(name)))

    def row(self, row_id: int) -> Tuple[object, ...]:
        """The packed tuple at a global (shard-gather order) row id, read
        one value per column (:meth:`~repro.storage.partition.Partition.row_at`)."""
        if not 0 <= row_id < self._row_count:
            raise StorageError(
                f"row id {row_id} out of range for table {self.name!r}"
            )
        offsets = self._partition_offsets()
        index = bisect_right(offsets, row_id) - 1
        return self._partitions[index].row_at(row_id - offsets[index])

    def iter_rows(self) -> Iterator[Tuple[object, ...]]:
        """Iterate all rows as packed tuples, shard by shard."""
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
        """Seal every shard's columns into compressed segments."""
        for partition in self._partitions:
            partition.compress(codec=codec)
        # Decoded reads still flow through the cached segment decode; drop
        # the gather caches so they rebuild from the segments.
        self._invalidate()

    def column_counts(
        self, position: int, zones: Optional[Sequence[Dict[str, ColumnZone]]] = None
    ) -> List[Counter]:
        """Each shard's occurrence :class:`Counter` of the column at
        ``position``, in shard order (what ANALYZE counts).

        With ``zones`` (one dict per shard), each shard that keeps a zone map
        records the column's zone from the same count
        (:meth:`~repro.storage.partition.Partition.column_counts`).
        """
        return [
            partition.column_counts(position, shard_zones)
            for partition, shard_zones in zip(
                self._partitions, repeat(None) if zones is None else zones
            )
        ]

    def refresh_zone_maps(
        self, zones: Optional[Sequence[Dict[str, ColumnZone]]] = None
    ) -> bool:
        """Recompute every shard's zone map exactly (ANALYZE; none when unpartitioned).

        ``zones`` are every column's zones as :meth:`column_counts` records
        them, counted shard by shard when ``None``.  Returns whether any
        shard's zone map changed.
        """
        changed = [
            partition.refresh_zone_map(shard_zones)
            for partition, shard_zones in zip(
                self._partitions, repeat(None) if zones is None else zones
            )
        ]
        return any(changed)
