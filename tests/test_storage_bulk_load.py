"""Bulk column loads: same stored values as row inserts, atomic on failure.

``Table.load_columns`` (one shard, or routed to many) validates whole
columns and only fall back to per-value coercion when a foreign type is
seen; these tests pin that the stored values equal what ``insert_rows``
stores, on both layouts, and that no failure leaves a torn table.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog.schema import (
    ColumnDef,
    ColumnType,
    PartitionSpec,
    TableSchema,
    make_schema,
)
from repro.errors import CatalogError, StorageError
from repro.storage.table import Table

COLUMNS = (
    ColumnDef("id", ColumnType.INT, nullable=False),
    ColumnDef("label", ColumnType.TEXT),
    ColumnDef("score", ColumnType.FLOAT),
    ColumnDef("flag", ColumnType.INT),
)
RANGE = PartitionSpec(method="range", column="id", bounds=(10, 20))
HASH = PartitionSpec(method="hash", column="flag", partitions=3)


def _table(spec=None):
    schema = TableSchema(name="t", columns=COLUMNS, partition_spec=spec)
    return Table(schema)


def _typed(values):
    """Values with their exact types: ``True`` and ``1`` must not compare equal."""
    return [(type(v), v) for v in values]


def _contents(table):
    return [_typed(column) for column in table.column_data()]


LAYOUTS = [None, RANGE, HASH]


@pytest.mark.parametrize("spec", LAYOUTS)
@pytest.mark.parametrize(
    "columns",
    [
        # Already typed, with NULLs in nullable columns: the fast path.
        [[5, 15, 25], ["a", None, "c"], [1.0, None, 2.5], [None, 1, 2]],
        # INT -> FLOAT widening.
        [[5, 15, 25], ["a", "b", "c"], [1, 2.5, None], [0, 1, 2]],
        # bool into INT stays a bool, exactly like a row insert.
        [[5, 15, 25], ["a", "b", "c"], [1.0, 2.0, 3.0], [True, False, 2]],
        # Numeric strings into INT, number into TEXT.
        [["5", 15, "25"], [7, "b", None], [1.0, 2.0, 3.0], ["1", 1, None]],
        # Tuples instead of lists.
        [(5, 15), ("a", "b"), (1.0, 2.0), (1, 2)],
        [[], [], [], []],
    ],
)
def test_bulk_load_stores_what_row_inserts_store(spec, columns):
    bulk, by_row = _table(spec), _table(spec)
    count = bulk.load_columns(columns)
    by_row.insert_rows(list(zip(*columns)))
    assert count == len(columns[0]) == bulk.row_count == by_row.row_count
    assert _contents(bulk) == _contents(by_row)


@pytest.mark.parametrize("spec", LAYOUTS)
@pytest.mark.parametrize(
    "columns, error",
    [
        # NULL into NOT NULL.
        ([[5, None], ["a", "b"], [1.0, 2.0], [1, 2]], StorageError),
        # NULL into NOT NULL in a column that also needs coercing.
        ([["5", None], ["a", "b"], [1.0, 2.0], [1, 2]], StorageError),
        # Failed coercion in the last column, after three were accepted.
        ([[5, 15], ["a", "b"], [1.0, 2.0], [1, "oops"]], CatalogError),
        # int(float("inf")) raises OverflowError inside the coercion.
        ([[5, 15], ["a", "b"], [1.0, 2.0], [1, float("inf")]], CatalogError),
    ],
)
def test_rejected_bulk_load_leaves_the_table_unchanged(spec, columns, error):
    table = _table(spec)
    table.load_columns([[1, 12], ["x", "y"], [0.5, 1.5], [3, 4]])
    before = _contents(table)
    with pytest.raises(error):
        table.load_columns(columns)
    assert table.row_count == 2
    assert _contents(table) == before
    assert {len(column) for column in table.column_data()} == {2}
    table.load_columns([[30], ["z"], [2.5], [5]])  # still loadable
    assert table.row_count == 3


class _Unconvertible:
    """A value whose conversion raises something outside the engine's errors."""

    def __int__(self):
        raise RuntimeError("boom")


@pytest.mark.parametrize("spec", LAYOUTS)
def test_rollback_runs_for_any_exception(spec):
    table = _table(spec)
    table.load_columns([[1], ["x"], [0.5], [3]])
    with pytest.raises(RuntimeError):
        table.load_columns([[2, 3], ["a", "b"], [1.0, 2.0], [1, _Unconvertible()]])
    assert table.row_count == 1
    assert [len(column) for column in table.column_data()] == [1, 1, 1, 1]


def test_overflow_no_longer_tears_a_plain_table():
    # The reproduction from the issue: a bare OverflowError used to escape the
    # rollback and leave column lengths [2, 1] at row_count 0.
    table = Table(make_schema("t", [("a", ColumnType.TEXT), ("b", ColumnType.INT)]))
    with pytest.raises(CatalogError):
        table.load_columns([["x", "y"], [1, float("inf")]])
    assert table.row_count == 0
    assert [len(column) for column in table.column_data()] == [0, 0]


@pytest.mark.parametrize("spec", LAYOUTS)
def test_bulk_load_copies_its_input(spec):
    table = _table(spec)
    columns = [[5, 15], ["a", "b"], [1.0, 2.0], [1, 2]]
    table.load_columns(columns)
    before = _contents(table)
    for values in columns:
        values[0] = None
        values.append(99)
    assert _contents(table) == before
    assert table.row_count == 2


# -- partitioned: differential against insert_rows ----------------------------


def _zones(table):
    return [
        (
            partition.zone_map.row_count,
            {
                name: (_typed([zone.minimum, zone.maximum]), zone.null_count)
                for name, zone in partition.zone_map.columns.items()
            },
        )
        for partition in table.partitions()
    ]


@pytest.mark.parametrize("spec", [RANGE, HASH])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_partitioned_bulk_load_equals_row_inserts(spec, seed):
    rng = random.Random(seed)
    rows = [
        (
            rng.randrange(0, 30),
            rng.choice(["a", "b", "c", None]),
            rng.choice([None, rng.random(), rng.randrange(5)]),
            rng.choice([None, True, rng.randrange(4), str(rng.randrange(4))]),
        )
        for _ in range(300)
    ]
    bulk, by_row = _table(spec), _table(spec)
    # Two batches: the second one folds into zone maps that already hold values.
    for batch in (rows[:120], rows[120:]):
        bulk.load_columns([list(column) for column in zip(*batch)])
        by_row.insert_rows(batch)
    assert bulk.row_count == by_row.row_count == 300
    for mine, theirs in zip(bulk.partitions(), by_row.partitions()):
        assert mine.row_count == theirs.row_count
        assert [_typed(c) for c in mine.column_data()] == [
            _typed(c) for c in theirs.column_data()
        ]
    assert _zones(bulk) == _zones(by_row)
    # Global row ids (partition-gather order) resolve to the same rows.
    assert [bulk.row(i) for i in range(300)] == [by_row.row(i) for i in range(300)]
    assert _contents(bulk) == _contents(by_row)
    # An ANALYZE-style refresh recomputes the synopsis the load maintained.
    loaded = _zones(bulk)
    bulk.refresh_zone_maps()
    assert _zones(bulk) == loaded


def test_partitioned_bulk_load_rejects_an_unroutable_key_atomically():
    # Integer range bounds over a TEXT key: every non-NULL key is unroutable.
    schema = make_schema(
        "t",
        [("k", ColumnType.TEXT), ("v", ColumnType.INT)],
        partition_by=PartitionSpec(method="range", column="k", bounds=(10,)),
    )
    table = Table(schema)
    table.load_columns([[None], [1]])  # NULL keys route to partition 0
    with pytest.raises(StorageError):
        table.load_columns([[None, "a"], [2, 3]])
    assert table.row_count == 1
    assert [p.row_count for p in table.partitions()] == [1, 0]
    assert table.column_values("v") == [1]


def test_partitioned_bulk_load_reopens_sealed_columns():
    table = _table(RANGE)
    table.load_columns([[5, 25], ["a", "z"], [1.0, 2.0], [1, 2]])
    table.compress()
    table.load_columns([[7], ["b"], [None], [9]])
    assert table.column_values("id") == [5, 7, 25]
    assert table.column_values("label") == ["a", "b", "z"]
    assert table.zone_map(0).zone("flag").maximum == 9
    assert table.zone_map(0).zone("score").null_count == 1
