"""Unit tests for hash indexes."""

import pytest

from repro.catalog import ColumnType, make_schema
from repro.errors import StorageError
from repro.storage import HashIndex, Table, build_foreign_key_indexes


def _table_with_rows():
    schema = make_schema(
        "trades",
        [("id", ColumnType.INT), ("company_id", ColumnType.INT), ("note", ColumnType.TEXT)],
        primary_key="id",
        foreign_keys=[("company_id", "company", "id")],
    )
    table = Table(schema)
    table.load_columns(
        [
            [1, 2, 3, 4, 5],
            [10, 10, 20, None, 30],
            ["a", "b", "c", "d", "e"],
        ]
    )
    return table


class TestHashIndex:
    def test_lookup(self):
        index = HashIndex(_table_with_rows(), "company_id")
        assert index.lookup(10) == [0, 1]
        assert index.lookup(20) == [2]
        assert index.lookup(999) == []
        assert index.lookup(None) == []

    def test_sizes(self):
        index = HashIndex(_table_with_rows(), "company_id")
        assert index.distinct_keys() == 3
        assert len(index) == 4  # NULL row is not indexed

    def test_unknown_column(self):
        with pytest.raises(StorageError):
            HashIndex(_table_with_rows(), "missing")


class TestForeignKeyIndexes:
    def test_builds_pk_and_fk_indexes(self):
        indexes = build_foreign_key_indexes(_table_with_rows())
        columns = {index.column for index in indexes}
        assert columns == {"id", "company_id"}
