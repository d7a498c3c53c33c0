"""Secondary indexes.

:class:`HashIndex` answers equality lookups for index-nested-loop joins and
equality predicates — PostgreSQL's btree-for-equality usage without the
ordering machinery.  Indexes are built eagerly from a
:class:`~repro.storage.table.Table` and are read-only afterwards; the
workloads in this repository load data once and then query it, matching the
paper's analytic setting.

A hash index first maps each key to a row id in one C-level pass over the
column (``dict(zip(values, range(n)))``, no object per row).  When no key
repeats — a primary key — that map *is* the index, and a lookup answers a
one-element list.  Only a column whose keys repeat (a foreign key) also
keeps a list of row ids per key, built row by row.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import StorageError
from repro.storage.table import Table


class Index:
    """Common interface for secondary indexes."""

    kind = "index"

    def __init__(self, table: Table, column: str) -> None:
        if not table.schema.has_column(column):
            raise StorageError(
                f"cannot index unknown column {column!r} of table {table.name!r}"
            )
        self.table = table
        self.column = column
        self.name = f"{table.name}_{column}_{self.kind}"

    def lookup(self, key: object) -> List[int]:
        """Return row ids whose indexed column equals ``key``."""
        raise NotImplementedError

    def __len__(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError


class HashIndex(Index):
    """Equality index: maps key value to the row ids holding it."""

    kind = "hash"

    def __init__(self, table: Table, column: str) -> None:
        super().__init__(table, column)
        values = table.column_values(column)
        rows = len(values)
        row_of = dict(zip(values, range(rows)))
        if None in row_of:
            del row_of[None]
            rows -= values.count(None)
        self._rows = rows
        self._row_of = row_of
        self._buckets: Optional[Dict[object, List[int]]] = None
        if len(row_of) < rows:
            buckets: Dict[object, List[int]] = {}
            for row_id, value in enumerate(values):
                if value is None:
                    continue
                buckets.setdefault(value, []).append(row_id)
            self._buckets = buckets

    def lookup(self, key: object) -> List[int]:
        """Row ids with ``column == key`` (NULL never matches)."""
        if key is None:
            return []
        if self._buckets is not None:
            return self._buckets.get(key, [])
        row_id = self._row_of.get(key)
        return [] if row_id is None else [row_id]

    def distinct_keys(self) -> int:
        """Number of distinct keys in the index."""
        return len(self._row_of)

    def __len__(self) -> int:
        return self._rows


def build_foreign_key_indexes(table: Table) -> List[Index]:
    """Build hash indexes for the primary key and every foreign-key column.

    This mirrors the paper's setup, which adds foreign-key indexes to make
    access-path selection harder (nested-loop-with-index plans become
    attractive when cardinalities are underestimated).
    """
    indexes: List[Index] = []
    schema = table.schema
    indexed = set()
    if schema.primary_key is not None:
        indexes.append(HashIndex(table, schema.primary_key))
        indexed.add(schema.primary_key)
    for fk in schema.foreign_keys:
        if fk.column not in indexed:
            indexes.append(HashIndex(table, fk.column))
            indexed.add(fk.column)
    return indexes
