"""In-memory columnar tables.

A :class:`Table` stores rows column-wise.  The executor works with row ids
(positions) and asks the table for individual column values or packed row
tuples.  The storage model intentionally mirrors what the cost model
assumes: a sequential scan touches every row, an index lookup touches only
matching rows.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.catalog.schema import TableSchema
from repro.errors import StorageError
from repro.storage.column import Column


class Table:
    """Columnar storage for one table."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._columns: Dict[str, Column] = {
            col.name: Column(col) for col in schema.columns
        }
        self._row_count = 0

    @property
    def name(self) -> str:
        """Table name (from the schema)."""
        return self.schema.name

    @property
    def row_count(self) -> int:
        """Number of rows currently stored."""
        return self._row_count

    def __len__(self) -> int:
        return self._row_count

    def column(self, name: str) -> Column:
        """Return the :class:`Column` named ``name``.

        Raises:
            StorageError: if the column does not exist.
        """
        try:
            return self._columns[name]
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def column_values(self, name: str) -> List[object]:
        """Return a copy of column ``name``'s values.

        A copy, not the backing list: handing out live storage lets caller
        mutations silently corrupt the table (and any statistics or indexes
        built over it).  Engines needing zero-copy reads use
        :meth:`column_data` and treat the lists as read-only.
        """
        return list(self.column(name).values())

    def insert_row(self, values: Sequence[object]) -> int:
        """Insert one row given positionally ordered values.

        Returns:
            The row id of the inserted row.

        Raises:
            StorageError: if the value count does not match the schema.
        """
        if len(values) != len(self.schema.columns):
            raise StorageError(
                f"table {self.name!r} expects {len(self.schema.columns)} values, "
                f"got {len(values)}"
            )
        for col_def, value in zip(self.schema.columns, values):
            self._columns[col_def.name].append(value)
        self._row_count += 1
        return self._row_count - 1

    def column_data(self) -> List[List[object]]:
        """Backing value lists of all columns, in schema order (zero-copy).

        The vectorized executor wraps these directly into a scan batch;
        callers must treat the lists as read-only.
        """
        return [self._columns[name].values() for name in self.schema.column_names]

    def load_columns(self, columns: Sequence[Sequence[object]]) -> int:
        """Append rows given column-wise (one value sequence per schema column).

        This is the bulk-load path used when materializing a columnar result
        into a table (temporary tables during re-optimization): each column
        is validated as a whole (:func:`~repro.storage.column.checked_values`)
        and appended with one ``list.extend``.  The input lists are copied,
        never adopted.  Atomic: a rejected value leaves the table unchanged.

        Returns:
            The number of rows appended.

        Raises:
            StorageError: if the column count or lengths are inconsistent.
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
        try:
            for col_def, values in zip(self.schema.columns, columns):
                self._columns[col_def.name].extend(values)
        except BaseException:
            # Roll back so a mid-load failure (StorageError for NULL into a
            # non-nullable column, CatalogError for a failed type coercion,
            # or anything a value's own conversion raises) cannot leave
            # ragged columns behind.
            for column in self._columns.values():
                column.truncate(self._row_count)
            raise
        self._row_count += count
        return count

    def insert_rows(self, rows: Iterable[Sequence[object]]) -> int:
        """Insert many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert_row(row)
            count += 1
        return count

    def row_values_from_dict(self, row: Dict[str, object]) -> List[object]:
        """Order a ``{column: value}`` dict into schema order (missing → NULL).

        Raises:
            StorageError: if the dict names columns the schema lacks.
        """
        names = self.schema.column_names
        unknown = set(row) - set(names)
        if unknown:
            raise StorageError(
                f"unknown columns {sorted(unknown)} for table {self.name!r}"
            )
        return [row.get(name) for name in names]

    def insert_dicts(self, rows: Iterable[Dict[str, object]]) -> int:
        """Insert rows given as ``{column: value}`` dictionaries.

        Missing columns are stored as NULL.
        """
        count = 0
        for row in rows:
            self.insert_row(self.row_values_from_dict(row))
            count += 1
        return count

    def row(self, row_id: int) -> Tuple[object, ...]:
        """Return the packed tuple of values for ``row_id``."""
        if not 0 <= row_id < self._row_count:
            raise StorageError(
                f"row id {row_id} out of range for table {self.name!r}"
            )
        return tuple(self._columns[c].values()[row_id] for c in self.schema.column_names)

    def value(self, row_id: int, column: str) -> object:
        """Return a single cell value."""
        return self.column(column)[row_id]

    def iter_rows(self) -> Iterator[Tuple[object, ...]]:
        """Iterate over all rows as packed tuples (sequential scan order)."""
        columns = [self._columns[c].values() for c in self.schema.column_names]
        for row_id in range(self._row_count):
            yield tuple(col[row_id] for col in columns)

    def iter_row_ids(self) -> Iterator[int]:
        """Iterate over all row ids in storage order."""
        return iter(range(self._row_count))

    def estimated_pages(self, rows_per_page: int = 100) -> int:
        """Crude page-count estimate used by the cost model."""
        if self._row_count == 0:
            return 1
        return (self._row_count + rows_per_page - 1) // rows_per_page
