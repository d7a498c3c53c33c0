"""Copy-on-write snapshots: pinned reads, read-only writes, epoch isolation."""

from __future__ import annotations

import pytest

from repro.catalog.schema import ColumnType, make_schema
from repro.engine import Database
from repro.errors import StorageError
from repro.storage.compression import DictionarySegment, PlainSegment, RLESegment
from repro.storage.snapshot import PartitionSnapshot, SnapshotTable
from repro.storage.table import Table
from repro.workloads.stocks import StocksConfig, build_stocks_database

SMALL_STOCKS = StocksConfig(num_companies=50, num_trades=500)

JOIN_SQL = (
    "SELECT c.symbol AS s, count(t.id) AS n FROM company AS c, trades AS t "
    "WHERE c.id = t.company_id GROUP BY c.symbol ORDER BY n DESC, s LIMIT 5"
)


def _plain_db(rows=100):
    db = Database()
    db.create_table(make_schema("t", [("id", ColumnType.INT), ("v", ColumnType.INT)]))
    db.load_rows("t", [(i, i * 3) for i in range(rows)])
    db.finalize_load()
    return db


def _partitioned_db(rows=120):
    db = Database()
    db.create_table(
        "CREATE TABLE p (id INT, gid INT) PARTITION BY HASH (gid) PARTITIONS 4"
    )
    db.load_rows("p", [(i, i % 7) for i in range(rows)])
    db.finalize_load()
    return db


class TestStorageSnapshots:
    def test_table_snapshot_pins_row_count(self):
        db = _plain_db(rows=100)
        table = db.catalog.table("t")
        snap = SnapshotTable(table)
        assert snap.row_count == 100

        db.load_rows("t", [(i, i) for i in range(100, 150)])
        assert table.row_count == 150
        # The snapshot still reads exactly the pinned prefix.
        assert snap.row_count == 100
        assert all(len(column) == 100 for column in snap.column_data())
        assert list(snap.iter_row_ids()) == list(range(100))
        assert snap.row(99) == (99, 297)

    def test_partitioned_snapshot_pins_every_shard(self):
        db = _partitioned_db(rows=120)
        table = db.catalog.table("p")
        snap = SnapshotTable(table)
        assert all(isinstance(shard, PartitionSnapshot) for shard in snap.partitions())
        # The executor prunes what the schema says is partitioned.
        assert snap.schema.partition_spec is not None
        assert snap.row_count == 120

        db.load_rows("p", [(i, i % 7) for i in range(120, 200)])
        assert table.row_count == 200
        assert snap.row_count == 120
        assert sum(len(part.column_data()[0]) for part in snap.partitions()) == 120

    def test_snapshots_reject_all_mutations(self):
        plain = SnapshotTable(_plain_db().catalog.table("t"))
        with pytest.raises(StorageError):
            plain.load_columns([[1], [2]])
        with pytest.raises(StorageError):
            plain.compress()
        pinned = _plain_db().snapshot()
        with pytest.raises(StorageError):
            pinned.load_rows("t", [(1, 2)])
        assert pinned.catalog.table("t").row_count == 100

        parted = SnapshotTable(_partitioned_db().catalog.table("p"))
        with pytest.raises(StorageError):
            parted.load_columns([[1], [2]])
        with pytest.raises(StorageError):
            parted.compress()
        with pytest.raises(StorageError):
            parted.refresh_zone_maps()
        for shard in parted.partitions():
            with pytest.raises(StorageError):
                shard.append_columns([[1], [2]])
            with pytest.raises(StorageError):
                shard.truncate(0)

    def test_partition_snapshot_zone_maps_detached_from_writer(self):
        db = _partitioned_db(rows=120)
        table = db.catalog.table("p")
        snap = SnapshotTable(table)
        pinned = [shard.zone_map for shard in snap.partitions()]
        # A pin shares the writer's zone maps rather than copying them.
        assert all(
            zone_map is shard.zone_map
            for zone_map, shard in zip(pinned, table.partitions())
        )
        before = [zone_map.columns["id"].maximum for zone_map in pinned]
        # Writer appends move the live zone maps past the pinned rows; the
        # read that refreshes them installs new objects on the writer.
        db.load_rows("p", [(10_000 + i, i % 7) for i in range(20)])
        live = [shard.zone_map for shard in table.partitions()]
        assert all(new is not old for new, old in zip(live, pinned))
        after = [
            shard.zone_map.columns["id"].maximum for shard in snap.partitions()
        ]
        assert after == before
        assert max(zone_map.columns["id"].maximum for zone_map in live) >= 10_000

    def test_snapshot_pins_open_columns_lazily(self):
        table = _plain_db(rows=100).catalog.table("t")
        snap = SnapshotTable(table)
        shard = snap.partitions()[0]
        assert shard._plain == [None, None]  # nothing copied at pin time
        pinned = snap.column_data()
        assert [len(column) for column in pinned] == [100, 100]
        assert pinned[0] is not table.partitions()[0].column_at(0)
        assert snap.column_data()[0] is pinned[0]  # sliced once, then served


def _compressed_range_db():
    db = Database()
    db.create_table(
        "CREATE TABLE w (id INT, v INT) PARTITION BY RANGE (id) VALUES (5000)"
    )
    db.load_rows("w", [(i, i % 11) for i in range(10_000)])
    db.finalize_load()
    db.catalog.table("w").compress()
    return db


class TestSnapshotsKeepSealedSegments:
    SQL = "SELECT count(*) FROM w AS w WHERE w.id > 9000"

    def test_snapshot_scans_skip_segments_like_the_database(self):
        db = _compressed_range_db()
        direct = db.explain(self.SQL, analyze=True)
        snapped = db.snapshot().explain(self.SQL, analyze=True)
        assert "segments_skipped=3" in direct
        assert snapped == direct
        assert db.snapshot().run(self.SQL).rows == [(999,)]

    def test_taking_a_snapshot_decodes_nothing(self, monkeypatch):
        db = _compressed_range_db()
        decodes = []
        for cls in (PlainSegment, DictionarySegment, RLESegment):
            original = cls.values
            monkeypatch.setattr(
                cls,
                "values",
                lambda self, original=original: decodes.append(self) or original(self),
            )
        snap = SnapshotTable(db.catalog.table("w"))
        assert decodes == []
        base_shard = db.catalog.table("w").partitions()[1]
        shard = snap.partitions()[1]
        assert all(
            shard.segment_at(p) is base_shard.segment_at(p) is not None
            for p in range(2)
        )


class TestDatabaseSnapshots:
    def test_snapshot_queries_ignore_concurrent_loads(self):
        db = _plain_db(rows=100)
        count_sql = "SELECT count(t.id) AS n FROM t AS t"
        snap = db.snapshot()
        db.load_rows("t", [(i, i) for i in range(100, 160)])
        assert snap.run(count_sql).rows == [(100,)]
        assert db.run(count_sql).rows == [(160,)]
        # A snapshot pinned after the load sees it.
        assert db.snapshot().run(count_sql).rows == [(160,)]

    def test_snapshot_of_snapshot_repins_from_base(self):
        db = _plain_db(rows=100)
        snap = db.snapshot()
        db.load_rows("t", [(i, i) for i in range(100, 110)])
        repinned = snap.snapshot()
        count_sql = "SELECT count(t.id) AS n FROM t AS t"
        assert snap.run(count_sql).rows == [(100,)]
        assert repinned.run(count_sql).rows == [(110,)]

    def test_catalog_snapshot_cache_reuses_table_views(self):
        db = _plain_db(rows=100)
        first = db.catalog.snapshot()
        second = db.catalog.snapshot()
        # No intervening write: the storage snapshot is shared, the entry is
        # not (each session mutates only its own catalog view).
        assert first.table("t") is second.table("t")
        assert first.entry("t") is not second.entry("t")

        db.load_rows("t", [(100, 100)])
        third = db.catalog.snapshot()
        assert third.table("t") is not first.table("t")
        assert third.table("t").row_count == 101

    def test_snapshot_excludes_transient_tables(self):
        db = _plain_db()
        schema = make_schema("__mid", [("x", ColumnType.INT)])
        scratch = Table(schema)
        db.catalog.register_transient(schema, scratch)
        snap = db.snapshot()
        assert "__mid" not in snap.catalog
        assert "t" in snap.catalog
        db.catalog.drop_transient("__mid")

    def test_local_catalog_changes_stay_local(self):
        db = _plain_db()
        base_epoch = db.catalog.epoch
        snap = db.snapshot()
        assert snap.catalog.epoch == base_epoch

        snap.create_table(
            make_schema("scratch", [("x", ColumnType.INT)])
        )
        snap.catalog.bump_epoch()
        assert "scratch" in snap.catalog
        assert "scratch" not in db.catalog
        assert db.catalog.epoch == base_epoch
        assert snap.catalog.epoch > base_epoch

    def test_snapshot_stats_follow_pin_not_later_analyze(self):
        db = _plain_db(rows=100)
        snap = db.snapshot()
        pinned_stats = snap.catalog.stats("t")
        assert pinned_stats is db.catalog.stats("t")  # shared, not copied
        db.load_rows("t", [(i, i) for i in range(100, 200)])
        db.analyze(["t"])
        assert snap.catalog.stats("t") is pinned_stats
        assert db.catalog.stats("t").row_count == 200

    def test_adaptive_reoptimization_runs_on_a_snapshot(self):
        from repro.core.interceptor import ReoptimizationInterceptor
        from repro.core.triggers import ReoptimizationPolicy
        from repro.engine.pipeline import QueryPipeline

        db = build_stocks_database(SMALL_STOCKS)
        expected = db.run(JOIN_SQL).rows
        tables_before = set(db.catalog.table_names())
        epoch_before = db.catalog.epoch

        snap = db.snapshot()
        pipeline = QueryPipeline(
            snap,
            [ReoptimizationInterceptor(ReoptimizationPolicy(), adaptive=True)],
        )
        ctx = pipeline.run(sql=JOIN_SQL)
        assert ctx.rows == expected
        # Statement-local temp tables and epoch bumps never leak to the base.
        assert set(db.catalog.table_names()) == tables_before
        assert db.catalog.epoch == epoch_before
