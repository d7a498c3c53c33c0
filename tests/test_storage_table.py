"""Unit tests for columnar tables and columns."""

import pytest

from repro.catalog import ColumnDef, ColumnType, make_schema
from repro.errors import StorageError
from repro.storage import Column, Table


def _table():
    schema = make_schema(
        "people",
        [("id", ColumnType.INT), ("name", ColumnType.TEXT), ("age", ColumnType.INT)],
        primary_key="id",
    )
    return Table(schema)


class TestColumn:
    def test_append_and_coerce(self):
        column = Column(ColumnDef("age", ColumnType.INT))
        column.extend([1, "2", None])
        assert column.values() == [1, 2, None]

    def test_non_nullable_rejects_none(self):
        column = Column(ColumnDef("id", ColumnType.INT, nullable=False))
        with pytest.raises(StorageError):
            column.append(None)


class TestTable:
    def test_insert_and_read(self):
        table = _table()
        row_id = table.insert_row((1, "alice", 30))
        assert row_id == 0
        assert table.row_count == 1
        assert table.row(0) == (1, "alice", 30)
        assert table.value(0, "name") == "alice"

    def test_insert_wrong_width(self):
        table = _table()
        with pytest.raises(StorageError):
            table.insert_row((1, "alice"))

    def test_insert_dicts_with_missing_column(self):
        table = _table()
        table.insert_dicts([{"id": 1, "name": "bob"}])
        assert table.row(0) == (1, "bob", None)

    def test_insert_dicts_unknown_column(self):
        table = _table()
        with pytest.raises(StorageError):
            table.insert_dicts([{"id": 1, "oops": 2}])

    def test_iter_rows(self):
        table = _table()
        table.insert_rows([(1, "a", 10), (2, "b", 20)])
        assert list(table.iter_rows()) == [(1, "a", 10), (2, "b", 20)]
        assert list(table.iter_row_ids()) == [0, 1]

    def test_row_out_of_range(self):
        table = _table()
        with pytest.raises(StorageError):
            table.row(0)

    def test_unknown_column(self):
        table = _table()
        with pytest.raises(StorageError):
            table.column("missing")

    def test_estimated_pages(self):
        table = _table()
        assert table.estimated_pages() == 1
        table.insert_rows([(i, "x", i) for i in range(250)])
        assert table.estimated_pages(rows_per_page=100) == 3
