"""Unit tests for columnar tables, including the one-shard zero-copy paths."""

import pytest

from repro.catalog import ColumnDef, ColumnType, TableSchema, make_schema
from repro.engine import Database
from repro.errors import CatalogError, StorageError
from repro.executor.operators import scan_table
from repro.sql.parser import parse_expression
from repro.storage import Table
from repro.storage.snapshot import SnapshotTable


def _table():
    schema = make_schema(
        "people",
        [("id", ColumnType.INT), ("name", ColumnType.TEXT), ("age", ColumnType.INT)],
        primary_key="id",
    )
    return Table(schema)


def _strict_table():
    return Table(
        TableSchema(
            name="strict",
            columns=(
                ColumnDef("id", ColumnType.INT, nullable=False),
                ColumnDef("age", ColumnType.INT),
            ),
        )
    )


class TestCoercion:
    def test_load_columns_coerces_to_int(self):
        table = _strict_table()
        assert table.load_columns([[1, 2, 3], [1, "2", None]]) == 3
        assert table.column_values("age") == [1, 2, None]

    def test_load_columns_rejects_null_into_not_null_atomically(self):
        table = _strict_table()
        table.load_columns([[1], [10]])
        with pytest.raises(StorageError):
            table.load_columns([[2, None], [20, 30]])
        assert table.row_count == 1
        assert table.column_data() == [[1], [10]]


class TestTable:
    def test_insert_and_read(self):
        table = _table()
        assert table.load_columns([[1], ["alice"], [30]]) == 1
        assert table.row_count == 1
        assert table.row(0) == (1, "alice", 30)

    def test_insert_wrong_width(self):
        table = _table()
        with pytest.raises(StorageError):
            table.load_columns([[1], ["alice"]])

    def test_iter_rows(self):
        table = _table()
        table.load_columns([[1, 2], ["a", "b"], [10, 20]])
        assert list(table.iter_rows()) == [(1, "a", 10), (2, "b", 20)]
        assert list(table.iter_row_ids()) == [0, 1]

    def test_row_out_of_range(self):
        table = _table()
        with pytest.raises(StorageError):
            table.row(0)

    def test_unknown_column(self):
        table = _table()
        with pytest.raises(CatalogError):
            table.column_values("missing")

    def test_estimated_pages(self):
        table = _table()
        assert table.estimated_pages() == 1
        table.load_columns([list(range(250)), ["x"] * 250, list(range(250))])
        assert table.estimated_pages(rows_per_page=100) == 3


def _people_db():
    db = Database()
    db.create_table(_table().schema)
    db.load_rows("people", [(i, f"p{i % 3}", 20 + i % 50) for i in range(200)])
    return db


class TestOneShardZeroCopy:
    """An unpartitioned table is one shard, and its reads never copy it."""

    def test_filtered_sequential_scan_wraps_the_shard_lists(self):
        db = _people_db()
        table = db.catalog.table("people")
        assert table.num_partitions == 1
        shard = table.partitions()[0]
        batch, fetched = scan_table(
            db.catalog, "p", "people", [parse_expression("p.age < 30")]
        )
        assert fetched == 200
        expected = [i for i in range(200) if 20 + i % 50 < 30]
        for position in range(3):
            backing, selection = batch.column_storage(position)
            assert backing is shard.column_at(position)
            assert selection == expected
        assert batch.column_values("p", "id") == expected

    def test_column_data_hands_out_the_shard_lists(self):
        table = _people_db().catalog.table("people")
        shard = table.partitions()[0]
        data = table.column_data()
        assert all(mine is theirs for mine, theirs in zip(data, shard.column_data()))
        assert table.gathered_column(1) is shard.column_at(1)
        assert table._gathered is None and not table._gathered_cols

    def test_snapshot_column_data_hands_out_its_shard_lists(self):
        snap = SnapshotTable(_people_db().catalog.table("people"))
        shard = snap.partitions()[0]
        data = snap.column_data()
        assert all(mine is theirs for mine, theirs in zip(data, shard.column_data()))
        assert snap.gathered_column(0) is data[0]
        assert snap._gathered is None and not snap._gathered_cols


class TestAdopt:
    """The adaptive handover: a one-shard table over the result's own lists."""

    def test_adopts_the_lists_without_copying(self):
        schema = make_schema("__mid", [("a", ColumnType.INT), ("b", ColumnType.TEXT)])
        columns = [[1, 2, 3], ["x", "y", "z"]]
        table = Table.adopt(schema, columns)
        assert table.row_count == 3
        assert all(mine is theirs for mine, theirs in zip(table.column_data(), columns))
        assert table.row(2) == (3, "z")
        assert list(table.iter_rows()) == [(1, "x"), (2, "y"), (3, "z")]
        assert table.estimated_pages() == 1

    def test_rejects_ragged_columns(self):
        schema = make_schema("__mid", [("a", ColumnType.INT), ("b", ColumnType.INT)])
        with pytest.raises(StorageError, match="ragged"):
            Table.adopt(schema, [[1, 2], [1]])

    def test_rejects_a_wrong_column_count(self):
        schema = make_schema("__mid", [("a", ColumnType.INT), ("b", ColumnType.INT)])
        with pytest.raises(StorageError, match="expects 2 columns"):
            Table.adopt(schema, [[1, 2]])
