"""ANALYZE golden tests: exact column statistics, counted shard by shard.

``_frozen_analyze_column`` is the multi-pass implementation ANALYZE used
before column statistics were derived from one occurrence count and one sort
of the distinct values (two full sorts, a set, a Counter, ``min`` and
``max`` over the same values).  It is kept here verbatim as the reference:
the production code must stay field-for-field equal to it.
"""

from __future__ import annotations

import random
import sys
import threading
import weakref
from collections import Counter

import pytest

from repro import Database, connect
from repro.catalog.schema import ColumnType, PartitionSpec, make_schema
from repro.core import ReoptimizationPolicy
from repro.engine import database as database_module
from repro.stats.analyze import _analyze_column, analyze_table
from repro.stats.column_stats import ColumnStats, TableStats
from repro.stats.histogram import EquiDepthHistogram
from repro.stats.mcv import MostCommonValues
from repro.storage.partition import ColumnZone, Partition, ZoneMap
from repro.storage.snapshot import SnapshotTable
from repro.storage.table import Table

# -- the frozen reference --------------------------------------------------------


def _frozen_mcv(values, max_entries):
    cleaned = [v for v in values if v is not None]
    if not cleaned:
        return None
    counts = Counter(cleaned)
    total = len(cleaned)
    common = counts.most_common(max_entries)
    if len(counts) > max_entries:
        average = total / len(counts)
        common = [(v, c) for v, c in common if c > 1.25 * average]
    if not common:
        common = counts.most_common(min(max_entries, len(counts)))
    return MostCommonValues(
        values=tuple(v for v, _ in common),
        frequencies=tuple(c / total for _, c in common),
    )


def _frozen_histogram(values, num_buckets):
    cleaned = sorted(v for v in values if v is not None)
    if len(cleaned) < 2:
        return None
    distinct = sorted(set(cleaned))
    if len(distinct) < 2:
        return None
    buckets = min(num_buckets, len(distinct) - 1, len(cleaned) - 1)
    if buckets < 1:
        return None
    bounds = []
    for i in range(buckets + 1):
        index = round(i * (len(cleaned) - 1) / buckets)
        bounds.append(cleaned[index])
    if len(set(bounds)) < 2:
        return None
    return EquiDepthHistogram(bounds=tuple(bounds))


def _frozen_analyze_column(name, col_type, values, statistics_target):
    row_count = len(values)
    non_null = [v for v in values if v is not None]
    null_fraction = 0.0 if row_count == 0 else 1.0 - len(non_null) / row_count
    n_distinct = len(set(non_null))
    mcv = _frozen_mcv(non_null, statistics_target)
    histogram = _frozen_histogram(non_null, statistics_target)
    min_value = min(non_null) if non_null else None
    max_value = max(non_null) if non_null else None
    return ColumnStats(
        column=name,
        col_type=col_type,
        null_fraction=null_fraction,
        n_distinct=n_distinct,
        mcv=mcv,
        histogram=histogram,
        min_value=min_value,
        max_value=max_value,
    )


# -- column statistics -----------------------------------------------------------


def _with_nulls(rng, values, share):
    return [None if rng.random() < share else v for v in values]


def _columns():
    rng = random.Random(20190408)
    zipf = [int(rng.paretovariate(1.1)) for _ in range(5000)]
    words = ["w%03d" % int(rng.paretovariate(0.9)) for _ in range(3000)]
    return {
        "int_uniform": (ColumnType.INT, [rng.randrange(400) for _ in range(5000)]),
        "int_unique_shuffled": (ColumnType.INT, rng.sample(range(3000), 3000)),
        "int_sorted": (ColumnType.INT, list(range(1000))),
        "int_skewed": (ColumnType.INT, zipf),
        "int_two_values": (ColumnType.INT, [rng.choice((7, 9)) for _ in range(500)]),
        "int_with_bools": (ColumnType.INT, [True, 1, 0, False, 2, 1, 3, True] * 20),
        "float_uniform": (ColumnType.FLOAT, [rng.random() for _ in range(2000)]),
        "float_rounded": (
            ColumnType.FLOAT,
            [round(rng.gauss(0, 3), 1) for _ in range(4000)],
        ),
        "text_skewed": (ColumnType.TEXT, words),
        "text_unique": (ColumnType.TEXT, [f"name{i}" for i in rng.sample(range(900), 900)]),
        "text_with_empty": (ColumnType.TEXT, [rng.choice(("", "a", "bb")) for _ in range(300)]),
        "int_null_heavy": (
            ColumnType.INT,
            _with_nulls(rng, [rng.randrange(50) for _ in range(3000)], 0.9),
        ),
        "text_null_heavy": (ColumnType.TEXT, _with_nulls(rng, words, 0.8)),
        "float_some_nulls": (
            ColumnType.FLOAT,
            _with_nulls(rng, [rng.random() for _ in range(1000)], 0.1),
        ),
        "all_null": (ColumnType.INT, [None] * 100),
        "all_null_text": (ColumnType.TEXT, [None] * 10),
        "single_value": (ColumnType.INT, [42] * 250),
        "single_row": (ColumnType.TEXT, ["only"]),
        "one_value_and_nulls": (ColumnType.INT, [5, None, 5, None, None]),
        "two_rows": (ColumnType.INT, [2, 1]),
        "empty": (ColumnType.INT, []),
        "empty_text": (ColumnType.TEXT, []),
    }


COLUMNS = _columns()


@pytest.mark.parametrize("statistics_target", [5, 100])
@pytest.mark.parametrize("name", sorted(COLUMNS))
def test_column_statistics_equal_the_frozen_implementation(name, statistics_target):
    col_type, values = COLUMNS[name]
    expected = _frozen_analyze_column(name, col_type, values, statistics_target)
    actual = _analyze_column(
        name, col_type, len(values), Counter(values), statistics_target
    )
    assert actual == expected
    # Dataclass equality treats 1 == 1.0; the statistics' float fields must
    # also be the same floats, bit for bit.
    assert repr(actual.null_fraction) == repr(expected.null_fraction)
    if expected.mcv is not None:
        assert [repr(f) for f in actual.mcv.frequencies] == [
            repr(f) for f in expected.mcv.frequencies
        ]


def test_public_builders_equal_the_frozen_implementation():
    for name, (_, values) in COLUMNS.items():
        for target in (5, 100):
            assert MostCommonValues.build(values, target) == _frozen_mcv(
                values, target
            ), name
            assert EquiDepthHistogram.build(values, target) == _frozen_histogram(
                values, target
            ), name


# -- storage layouts -------------------------------------------------------------


def _schema(partition_by=None):
    return make_schema(
        "people",
        [("id", ColumnType.INT), ("name", ColumnType.TEXT), ("score", ColumnType.FLOAT)],
        primary_key="id",
        partition_by=partition_by,
    )


def _rows(count):
    return [
        (i, f"n{i % 17}" if i % 5 else None, (i * 37 % 101) / 7.0) for i in range(count)
    ]


def _columns(count):
    """``_rows(count)`` column-wise, as ``Table.load_columns`` takes them."""
    rows = _rows(count)
    return [[row[position] for row in rows] for position in range(3)]


def _plain(count):
    table = Table(_schema())
    table.load_columns(_columns(count))
    return table


def _partitioned_compressed(count):
    table = Table(
        _schema(PartitionSpec(method="hash", column="id", partitions=4))
    )
    table.load_columns(_columns(count))
    table.compress()
    return table


LAYOUTS = {
    "table": _plain,
    "compressed_partitioned": _partitioned_compressed,
    "table_snapshot": lambda count: SnapshotTable(_plain(count)),
    "partitioned_snapshot": lambda count: SnapshotTable(_partitioned_compressed(count)),
}


def _no_row_reads(self, row_id):
    raise AssertionError(f"ANALYZE read stored row {row_id} of {self.name!r}")


@pytest.fixture
def analyzed(monkeypatch):
    """Make ``Table.row`` raise; returns the names ``Database`` ANALYZEs.

    Building ``stock_db`` ANALYZEs its tables, so a test requests it first.
    """
    names = []
    analyze = database_module.analyze_table

    def recording(table, *args, **kwargs):
        names.append(table.name)
        return analyze(table, *args, **kwargs)

    monkeypatch.setattr(Table, "row", _no_row_reads)
    monkeypatch.setattr(database_module, "analyze_table", recording)
    return names


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("rows", [0, 60, 100, 1000])
def test_analyze_reads_no_stored_row(analyzed, monkeypatch, layout, rows):
    table = LAYOUTS[layout](rows)
    assert analyze_table(table).row_count == rows
    # With point reads allowed again, they return the stored rows in gather
    # order (the reference engine's index path reads them).
    monkeypatch.undo()
    assert [table.row(i) for i in range(len(table))] == list(table.iter_rows())


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("rows", [0, 60, 100, 1000])
def test_every_layout_stores_each_inserted_row_once(layout, rows):
    table = LAYOUTS[layout](rows)
    inserted = _rows(rows)
    stored = list(table.iter_rows())
    assert sorted(stored, key=lambda row: row[0]) == inserted
    # A shard keeps its rows in insertion order.
    position = {row: i for i, row in enumerate(inserted)}
    for partition in table.partitions():
        order = [position[row] for row in partition.iter_rows()]
        assert order == sorted(order)
    # A rebuilt copy stores them in the same shards, in the same order.
    assert list(LAYOUTS[layout](rows).iter_rows()) == stored


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("rows", [60, 1000])
def test_concurrent_first_point_reads_agree(layout, rows):
    # The first read fills lazy caches (a sealed segment's decode, a
    # snapshot's pinned column copy); racing first readers must agree.
    expected = list(LAYOUTS[layout](rows).iter_rows())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            table = LAYOUTS[layout](rows)
            start = threading.Barrier(8)
            results = []

            def read():
                start.wait()
                results.append([table.row(i) for i in range(rows)])

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 8
    finally:
        sys.setswitchinterval(interval)


def test_database_analyze_reads_no_stored_row(stock_db, analyzed):
    stock_db.analyze()
    assert sorted(analyzed) == ["company", "trades"]


def test_reoptimization_round_reads_no_stored_row(stock_db, analyzed):
    # One re-optimization round, whose temporary table is ANALYZEd.
    conn = connect(stock_db, policy=ReoptimizationPolicy(threshold=4), plan_cache_size=0)
    context = conn.execute(
        "SELECT count(t.id) AS n FROM company AS c, trades AS t "
        "WHERE c.symbol = 'SYM1' AND c.id = t.company_id"
    ).context
    assert context.reoptimized
    assert analyzed and "company" not in analyzed and "trades" not in analyzed


def test_layouts_agree_on_column_statistics():
    plain = analyze_table(_plain(500))
    for layout in sorted(LAYOUTS):
        other = analyze_table(LAYOUTS[layout](500))
        for column, expected in plain.columns.items():
            actual = other.columns[column]
            # Partition-gather order differs from insertion order, which only
            # the order of equally frequent MCV entries may reflect.
            assert actual.n_distinct == expected.n_distinct
            assert actual.null_fraction == expected.null_fraction
            assert actual.histogram == expected.histogram
            assert (actual.min_value, actual.max_value) == (
                expected.min_value,
                expected.max_value,
            )


# -- sharded ANALYZE -------------------------------------------------------------
#
# ANALYZE counts each shard's columns once and merges the counts; the
# reference gathers every column in global row-id order first, as ANALYZE
# did before, and derives everything from the gathered lists.


def _frozen_gathered_stats(table, statistics_target):
    columns = table.column_data()
    stats = TableStats(table=table.name, row_count=table.row_count)
    for col_def, values in zip(table.schema.columns, columns):
        if col_def.col_type is ColumnType.FLOAT:
            # A NaN orders with nothing, so the multi-pass reference's sorts of
            # a set differ from the sort of the counted keys: the gathered
            # column's own count is the reference here.
            column = _analyze_column(
                col_def.name, col_def.col_type, len(values), Counter(values),
                statistics_target,
            )
        else:
            column = _frozen_analyze_column(
                col_def.name, col_def.col_type, values, statistics_target
            )
        stats.columns[col_def.name] = column
    return stats


def _sharded_schema():
    # Shard 2 (ids 200..299) stays empty.
    return make_schema(
        "sharded",
        [
            ("id", ColumnType.INT),
            ("grp", ColumnType.INT),
            ("score", ColumnType.FLOAT),
            ("name", ColumnType.TEXT),
            ("tag", ColumnType.TEXT),
        ],
        primary_key="id",
        partition_by=PartitionSpec(method="range", column="id", bounds=(100, 200, 300)),
    )


def _sharded_rows():
    rng = random.Random(1938)
    shared_nan = float("nan")
    ids = [*range(0, 100), *range(300, 400), *range(100, 200)]
    rows = []
    for i in ids:
        shard = 0 if i < 100 else (1 if i < 200 else 3)
        # ``grp`` repeats across shards (overlapping keys), ``tag`` never does.
        grp = None if i % 11 == 0 else rng.randrange(6)
        score = rng.choice((0.5, 1.5, 2.5, None))
        if i % 37 == 5 or i == 300:  # shard 3 starts with a NaN
            score = shared_nan
        elif i % 53 == 7:
            score = float("nan")
        elif i % 13 == 3:
            # Equal zeros of either sign, the first of them differing per shard.
            score = (-0.0, 0.0)[(i + shard) % 2]
        name = None if shard == 1 and i % 3 else f"n{rng.randrange(4)}"
        tag = f"s{shard}-{i % (3 + shard)}"
        rows.append((i, grp, score, name, tag))
    return rows


def _sharded_db(rows=None):
    db = Database()
    db.create_table(_sharded_schema())
    db.load_rows("sharded", rows or _sharded_rows())
    return db, db.catalog.table("sharded")


def _recomputed_zone_map(partition):
    return ZoneMap(
        row_count=partition.row_count,
        columns={
            col.name: ColumnZone.from_counts(Counter(values))
            for col, values in zip(partition.schema.columns, partition.column_data())
        },
    )


def test_the_sharded_table_has_what_the_merge_must_keep():
    _, table = _sharded_db()
    shards = table.partitions()
    assert [p.row_count for p in shards] == [100, 100, 0, 100]
    scores = [shard.column_values("score") for shard in shards]
    assert all(any(v != v for v in column) for column in scores if column)
    # The first zero has a different sign in shards 0 and 1.
    firsts = [repr(next(v for v in column if v == 0.0)) for column in scores if column]
    assert len(set(firsts)) == 2
    grp = [set(shard.column_values("grp")) - {None} for shard in shards]
    tag = [set(shard.column_values("tag")) for shard in shards]
    assert grp[0] & grp[1] and not tag[0] & tag[1]


@pytest.mark.parametrize("compressed", [False, True])
@pytest.mark.parametrize("statistics_target", [3, 100])
def test_sharded_statistics_equal_the_gathered_reference(statistics_target, compressed):
    # The reference gathers, so it reads a second table of the same values.
    rows = _sharded_rows()
    table, gathered = (_sharded_db(rows)[1] for _ in range(2))
    if compressed:
        table.compress()
    expected = _frozen_gathered_stats(gathered, statistics_target)
    for analyzed in (table, SnapshotTable(table)):
        actual = analyze_table(analyzed, statistics_target)
        assert actual == expected
        # Float fields, MCV order and first key objects (0.0 or -0.0), bit
        # for bit.
        assert repr(actual) == repr(expected)
        # Counted shard by shard: no column was gathered.
        assert analyzed._gathered is None and not analyzed._gathered_cols


def test_database_analyze_refreshes_every_zone_map_from_its_counts():
    db, table = _sharded_db()
    recomputed = [_recomputed_zone_map(p) for p in table.partitions()]
    for partition in table.partitions():
        partition._zone_map = ZoneMap(
            row_count=-1,
            columns={col.name: ColumnZone(-9, 9, 1, True) for col in table.schema.columns},
        )
    epoch = db.catalog.epoch
    db.analyze()
    assert db.catalog.epoch > epoch
    assert [p.zone_map for p in table.partitions()] == recomputed
    assert [repr(p.zone_map) for p in table.partitions()] == [repr(z) for z in recomputed]
    assert repr(db.catalog.stats("sharded")) == repr(
        _frozen_gathered_stats(table, db.settings.statistics_target)
    )
    # Refreshing through the table itself gives the same zone maps.
    assert not table.refresh_zone_maps()
    assert [repr(p.zone_map) for p in table.partitions()] == [repr(z) for z in recomputed]


@pytest.mark.parametrize("partitioned", [True, False])
def test_analyze_holds_one_column_of_counts_at_a_time(monkeypatch, partitioned):
    if partitioned:
        db, _ = _sharded_db()
    else:
        db = Database()
        db.create_table(make_schema("plain", [("a", ColumnType.INT), ("b", ColumnType.TEXT)]))
        db.load_rows("plain", [(i % 7, f"v{i % 5}") for i in range(200)])
    taken = []
    count = Partition.column_counts

    def recording(self, position, zones=None):
        # Every count of an earlier column is gone once the next is taken.
        assert all(ref() is None for at, ref in taken if at != position)
        counts = count(self, position, zones)
        taken.append((position, weakref.ref(counts)))
        return counts

    monkeypatch.setattr(Partition, "column_counts", recording)
    db.analyze()
    assert len({at for at, _ in taken}) == (5 if partitioned else 2)
    assert all(ref() is None for _, ref in taken)
