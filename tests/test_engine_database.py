"""Unit tests for the Database facade."""

import pytest

from repro.catalog import ColumnType, make_schema
from repro.engine import Database, EngineSettings
from repro.errors import CatalogError, StorageError, TempTableExists
from repro.optimizer.plan import JoinAlgorithm


class TestDatabaseDDL:
    def test_create_load_analyze(self, stock_db):
        assert stock_db.catalog.table("company").row_count == 150
        assert stock_db.catalog.stats("trades").row_count == 4000
        assert "company_id" in stock_db.catalog.indexes("trades")

    def test_load_dict_rows(self):
        db = Database()
        db.create_table(make_schema("t", [("id", ColumnType.INT), ("x", ColumnType.TEXT)]))
        count = db.load_rows("t", [{"id": 1, "x": "a"}, {"id": 2}])
        assert count == 2
        assert db.catalog.table("t").row(1) == (2, None)

    def test_load_rows_mixes_tuples_and_dicts(self):
        db = Database()
        db.create_table(make_schema("t", [("id", ColumnType.INT), ("x", ColumnType.TEXT)]))
        count = db.load_rows("t", [(1, "a"), {"id": 2, "x": "b"}, (3, None)])
        assert count == 3
        assert list(db.catalog.table("t").iter_rows()) == [(1, "a"), (2, "b"), (3, None)]

    def test_load_rows_empty_iterable(self):
        db = Database()
        db.create_table(make_schema("t", [("id", ColumnType.INT)]))
        assert db.load_rows("t", []) == 0
        assert db.catalog.table("t").row_count == 0

    def test_load_rows_rejects_bad_width_and_unknown_columns(self):
        db = Database()
        db.create_table(make_schema("t", [("id", ColumnType.INT), ("x", ColumnType.TEXT)]))
        with pytest.raises(StorageError):
            db.load_rows("t", [(1,)])
        with pytest.raises(StorageError):
            db.load_rows("t", [{"id": 1, "nope": 2}])

    def test_load_rows_is_atomic_on_bad_value(self):
        # The bulk path loads column-wise in one load_columns call; a NULL in
        # a non-nullable column must roll the whole batch back.
        from repro.catalog import ColumnDef, TableSchema

        db = Database()
        db.create_table(
            TableSchema(
                name="t",
                columns=(
                    ColumnDef("id", ColumnType.INT, nullable=False),
                    ColumnDef("x", ColumnType.TEXT),
                ),
            )
        )
        with pytest.raises(StorageError):
            db.load_rows("t", [(1, "a"), (None, "b")])
        assert db.catalog.table("t").row_count == 0

    def test_drop_table(self, stock_db):
        stock_db.drop_table("trades")
        assert "trades" not in stock_db.catalog
        with pytest.raises(CatalogError):
            stock_db.drop_table("trades")

    def test_settings_disable_auto_indexes(self):
        db = Database(EngineSettings(auto_foreign_key_indexes=False))
        db.create_table(
            make_schema("t", [("id", ColumnType.INT)], primary_key="id")
        )
        db.load_rows("t", [(1,), (2,)])
        db.finalize_load()
        assert db.catalog.indexes("t") == {}

    def test_create_extra_index(self, stock_db):
        stock_db.create_index("trades", "venue")
        assert "venue" in stock_db.catalog.indexes("trades")


class TestLoadAfterIndexBuild:
    """A load into an indexed table rebuilds its indexes over the new rows."""

    @staticmethod
    def _db():
        db = Database()
        db.create_table(
            make_schema("t", [("id", ColumnType.INT), ("v", ColumnType.INT)], primary_key="id")
        )
        db.create_table(
            make_schema(
                "u",
                [("id", ColumnType.INT), ("t_id", ColumnType.INT)],
                primary_key="id",
                foreign_keys=[("t_id", "t", "id")],
            )
        )
        db.load_rows("t", [(i, i % 3) for i in range(1000)])
        db.load_rows("u", [(i, i) for i in range(5)])
        db.build_indexes()
        db.analyze()
        return db

    def test_index_scan_finds_a_late_row(self):
        db = self._db()
        index = db.catalog.indexes("t")["id"]
        epoch = db.catalog.epoch
        db.load_rows("t", [(i, 3) for i in range(1000, 1010)])
        sql = "SELECT t.v FROM t AS t WHERE t.id = 1005"
        assert "Index Scan" in db.explain(sql)
        assert db.run(sql).rows == [(3,)]
        assert db.run("SELECT count(*) AS n FROM t AS t").rows == [(1010,)]
        assert db.catalog.indexes("t")["id"] is not index
        assert db.catalog.epoch == epoch  # cached plans stay valid

    def test_index_nested_loop_join_fetches_late_rows(self):
        db = self._db()
        db.load_rows("u", [(i, i) for i in range(1000, 1010)])
        db.load_rows("t", [(i, 3) for i in range(1000, 1010)])
        planned = db.plan(
            "SELECT u.id, t.v FROM u AS u, t AS t WHERE u.t_id = t.id AND t.v = 3"
        )
        (join,) = planned.plan.join_nodes()
        if join.right.alias != "t":
            join.left, join.right = join.right, join.left
        join.algorithm = JoinAlgorithm.INDEX_NESTED_LOOP
        rows = db.execute_plan(planned).result.rows
        assert sorted(rows) == [(i, 3) for i in range(1000, 1010)]

    def test_a_snapshot_pinned_before_the_load_keeps_its_indexes(self):
        db = self._db()
        pinned = db.snapshot()
        index = pinned.catalog.indexes("t")["id"]
        db.load_rows("t", [(i, 3) for i in range(1000, 1010)])
        assert pinned.catalog.indexes("t")["id"] is index
        assert len(index) == 1000
        assert pinned.run("SELECT t.v FROM t AS t WHERE t.id = 1005").rows == []
        assert pinned.run("SELECT t.v FROM t AS t WHERE t.id = 5").rows == [(2,)]
        assert db.snapshot().run("SELECT t.v FROM t AS t WHERE t.id = 1005").rows == [(3,)]


class TestDatabaseQuerying:
    def test_run_sql_end_to_end(self, stock_db):
        run = stock_db.run(
            "SELECT count(t.id) AS n FROM trades AS t WHERE t.venue = 'NASDAQ'"
        )
        expected = sum(
            1 for row in stock_db.catalog.table("trades").iter_rows() if row[3] == "NASDAQ"
        )
        assert run.rows == [(expected,)]
        assert run.total_seconds == run.planning_seconds + run.execution_seconds

    def test_explain_without_analyze(self, stock_db):
        text = stock_db.explain("SELECT c.id FROM company AS c WHERE c.id = 3")
        assert "est_rows" in text
        assert "actual_rows" not in text

    def test_temp_table_from_result(self, stock_db):
        run = stock_db.run(
            "SELECT c.id, c.symbol FROM company AS c WHERE c.sector = 'tech'"
        )
        planned = stock_db.plan(
            "SELECT c.id, c.symbol FROM company AS c WHERE c.sector = 'tech'"
        )
        # Materialize the scan below the final projection, the way the
        # re-optimizer materializes a sub-plan (qualified columns preserved).
        # The plan must reference every materialized column: projection
        # pushdown narrows scans to the referenced set.
        execution = stock_db.executor.execute(planned.plan.child)
        name = stock_db.next_temp_table_name()
        table = stock_db.create_temp_table_from_result(
            name,
            execution.result,
            [(("c", "id"), "c_id"), (("c", "symbol"), "c_symbol")],
            alias_tables={"c": "company"},
        )
        assert table.row_count == len(run.rows)
        assert stock_db.catalog.stats(name) is not None
        assert stock_db.catalog.schema(name).column("c_id").col_type is ColumnType.INT
        # The temp table is queryable through the normal path.
        temp_run = stock_db.run(f"SELECT count(x.c_id) AS n FROM {name} AS x")
        assert temp_run.rows == [(table.row_count,)]

    def test_temp_table_duplicate_name_rejected(self, stock_db):
        planned = stock_db.plan("SELECT c.id FROM company AS c WHERE c.id = 1")
        execution = stock_db.executor.execute(planned.plan.child)
        columns = [(("c", "id"), "c_id")]
        stock_db.create_temp_table_from_result("dup", execution.result, columns)
        # The collision raises the dedicated subclass, which still satisfies
        # callers catching the broader CatalogError.
        with pytest.raises(TempTableExists):
            stock_db.create_temp_table_from_result("dup", execution.result, columns)
        assert issubclass(TempTableExists, CatalogError)

    def test_temp_table_collision_leaves_original_intact(self, stock_db):
        planned = stock_db.plan("SELECT c.id FROM company AS c WHERE c.id = 1")
        execution = stock_db.executor.execute(planned.plan.child)
        columns = [(("c", "id"), "c_id")]
        table = stock_db.create_temp_table_from_result("dup2", execution.result, columns)
        rows_before = table.row_count
        with pytest.raises(TempTableExists):
            stock_db.create_temp_table_from_result("dup2", execution.result, columns)
        assert stock_db.catalog.table("dup2") is table
        assert table.row_count == rows_before

    def test_temp_table_names_unique(self, stock_db):
        assert stock_db.next_temp_table_name() != stock_db.next_temp_table_name()
