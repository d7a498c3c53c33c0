"""Bulk column loads: same stored values as a per-row model, atomic on failure.

``Table.load_columns`` (one shard, or routed to many) validates whole
columns and only falls back to per-value coercion when a foreign type is
seen; these tests pin that the stored values equal those of a per-row model
(each row, in input order, routed by its checked key into its shard, each
value checked on its own), on both layouts, and that no failure leaves a
torn table.
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
from repro.storage.column import checked_value
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


def _row_model(spec, rows):
    """Each shard's columns as the per-row model stores ``rows``: every value
    through ``checked_value``, every row appended in input order to the
    shard ``Table.route`` names for its checked key."""
    router = _table(spec)
    key = None if spec is None else router.schema.column_index(spec.column)
    shards = [[[] for _ in COLUMNS] for _ in router.partitions()]
    for row in rows:
        values = [checked_value(col, value) for col, value in zip(COLUMNS, row)]
        shard = 0 if key is None else router.route(values[key])
        for column, value in zip(shards[shard], values):
            column.append(value)
    return shards


def _gathered(shards):
    """The model's columns in global row-id (shard-gather) order."""
    return [sum(columns, []) for columns in zip(*shards)]


LAYOUTS = [None, RANGE, HASH]


@pytest.mark.parametrize("spec", LAYOUTS)
@pytest.mark.parametrize(
    "columns",
    [
        # Already typed, with NULLs in nullable columns: the fast path.
        [[5, 15, 25], ["a", None, "c"], [1.0, None, 2.5], [None, 1, 2]],
        # INT -> FLOAT widening.
        [[5, 15, 25], ["a", "b", "c"], [1, 2.5, None], [0, 1, 2]],
        # bool into INT stays a bool, as checked_value stores it.
        [[5, 15, 25], ["a", "b", "c"], [1.0, 2.0, 3.0], [True, False, 2]],
        # Numeric strings into INT, number into TEXT.
        [["5", 15, "25"], [7, "b", None], [1.0, 2.0, 3.0], ["1", 1, None]],
        # FLOAT into INT truncates; bool and a numeric string into FLOAT.
        [[5.0, "15", 25.9], [1.5, 2, None], ["2.5", True, 3], [1.9, None, "0"]],
        # Tuples instead of lists.
        [(5, 15), ("a", "b"), (1.0, 2.0), (1, 2)],
        [[], [], [], []],
    ],
)
def test_bulk_load_stores_what_row_inserts_store(spec, columns):
    bulk = _table(spec)
    count = bulk.load_columns(columns)
    assert count == len(columns[0]) == bulk.row_count
    expected = _gathered(_row_model(spec, zip(*columns)))
    assert _contents(bulk) == [_typed(column) for column in expected]


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


# -- partitioned: differential against the per-row model -----------------------


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


def _model_zones(shards):
    """Per shard: its row count, and per column the min/max (first of equal
    values) and NULL count of the values stored there."""
    zones = []
    for columns in shards:
        entries = {}
        for col, values in zip(COLUMNS, columns):
            present = [value for value in values if value is not None]
            extremes = [min(present), max(present)] if present else [None, None]
            entries[col.name] = (_typed(extremes), values.count(None))
        zones.append((len(columns[0]), entries))
    return zones


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
    bulk = _table(spec)
    # Two batches, the zone maps read after each: the second batch appends to
    # shards that already hold rows and whose zone maps are current.
    for loaded in (120, 300):
        batch = rows[bulk.row_count : loaded]
        bulk.load_columns([list(column) for column in zip(*batch)])
        assert _zones(bulk) == _model_zones(_row_model(spec, rows[:loaded]))
    shards = _row_model(spec, rows)
    assert bulk.row_count == 300
    for mine, theirs in zip(bulk.partitions(), shards):
        assert mine.row_count == len(theirs[0])
        assert [_typed(c) for c in mine.column_data()] == [_typed(c) for c in theirs]
    assert _zones(bulk) == _model_zones(shards)
    # Global row ids (partition-gather order) resolve to the model's rows.
    expected = _gathered(shards)
    assert [bulk.row(i) for i in range(300)] == list(zip(*expected))
    assert _contents(bulk) == [_typed(column) for column in expected]
    # An ANALYZE-style refresh recomputes the zone maps read after the load.
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
