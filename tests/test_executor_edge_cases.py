"""Regression pins for NULL-handling and empty-input operator edge cases.

These cases were audited while porting the executor to columnar batches
(ISSUE: "fix latent operator bug surface").  Each test runs through **both**
engines and asserts SQL semantics plus engine agreement on rows and charged
work, so a future operator change cannot silently regress one engine.
"""

from __future__ import annotations

import pytest

from repro.catalog import ColumnType, make_schema
from repro.engine import Database, ExecutionEngine
from repro.executor.batch import ColumnBatch
from repro.executor.operators import aggregate_result, join_results
from repro.executor.reference import ResultSet
from repro.executor import reference
from repro.sql.ast import AggregateFunc, Column, ColumnRef, SelectItem
from repro.sql.binder import BoundJoin

ENGINES = [ExecutionEngine.VECTORIZED, ExecutionEngine.REFERENCE]


@pytest.fixture()
def edge_db() -> Database:
    db = Database()
    db.create_table(
        make_schema(
            "t",
            [("id", ColumnType.INT), ("k", ColumnType.INT), ("v", ColumnType.TEXT)],
            primary_key="id",
        )
    )
    db.create_table(
        make_schema(
            "u",
            [("id", ColumnType.INT), ("k", ColumnType.INT)],
            primary_key="id",
        )
    )
    db.create_table(
        make_schema(
            "empty_table",
            [("id", ColumnType.INT), ("w", ColumnType.INT)],
            primary_key="id",
        )
    )
    db.load_rows("t", [(1, None, "x"), (2, None, None), (3, None, "y")])
    db.load_rows("u", [(1, 1), (2, 2)])
    db.finalize_load()
    return db


def _both(db: Database, sql: str):
    planned = db.plan(sql)
    vectorized = db.executor.execute(planned.plan)
    ref = db.executor_for(ExecutionEngine.REFERENCE).execute(planned.plan)
    assert vectorized.total_work == ref.total_work
    assert sorted(map(repr, vectorized.result.rows)) == sorted(map(repr, ref.result.rows))
    return vectorized, ref


class TestAggregateEdgeCases:
    def test_aggregate_over_zero_rows(self, edge_db):
        vectorized, _ = _both(
            edge_db,
            "SELECT count(t.id) AS n, min(t.v) AS lo, max(t.v) AS hi "
            "FROM t WHERE t.id > 100",
        )
        assert vectorized.result.rows == [(0, None, None)]

    def test_bare_column_with_aggregate_requires_group_by(self, edge_db):
        """The old lenient mixed select list is now a parse error; grouped is ok."""
        from repro.errors import ParseError

        with pytest.raises(ParseError, match="bare column t.v"):
            edge_db.plan("SELECT t.v, count(t.id) AS n FROM t WHERE t.id > 100")
        # Grouped, zero input rows produce zero groups (standard SQL).
        vectorized, _ = _both(
            edge_db,
            "SELECT t.v, count(t.id) AS n FROM t WHERE t.id > 100 GROUP BY t.v",
        )
        assert vectorized.result.rows == []

    def test_count_skips_nulls(self, edge_db):
        vectorized, _ = _both(edge_db, "SELECT count(t.k) AS n FROM t")
        assert vectorized.result.rows == [(0,)]

    def test_min_max_skip_nulls(self, edge_db):
        vectorized, _ = _both(
            edge_db, "SELECT min(t.v) AS lo, max(t.v) AS hi FROM t"
        )
        assert vectorized.result.rows == [("x", "y")]

    def test_aggregate_over_empty_table(self, edge_db):
        vectorized, _ = _both(
            edge_db, "SELECT count(empty_table.id) AS n FROM empty_table"
        )
        assert vectorized.result.rows == [(0,)]

    def test_direct_aggregate_of_empty_input_both_engines(self):
        columns = [("t", "a")]
        items = [
            SelectItem(Column(ColumnRef("t", "a")), AggregateFunc.MIN, "lo"),
            SelectItem(Column(ColumnRef("t", "a")), AggregateFunc.COUNT, "n"),
        ]
        vectorized = aggregate_result(ColumnBatch.from_rows(columns, []), items)
        oracle = reference.aggregate_result(ResultSet(columns, []), items)
        assert vectorized.rows == oracle.rows == [(None, 0)]


class TestGroupedAggregateEdgeCases:
    """Pins for GROUP BY / new-aggregate semantics (both engines)."""

    @pytest.fixture()
    def grouped_db(self) -> Database:
        db = Database()
        db.create_table(
            make_schema(
                "m",
                [
                    ("id", ColumnType.INT),
                    ("g", ColumnType.TEXT),
                    ("x", ColumnType.INT),
                ],
                primary_key="id",
            )
        )
        # Group 'a' has values, group 'b' is all-NULL, NULL key has a value.
        db.load_rows(
            "m",
            [
                (1, "a", 4),
                (2, "a", None),
                (3, "b", None),
                (4, None, 2),
                (5, "b", None),
                (6, None, None),
            ],
        )
        db.finalize_load()
        return db

    def test_null_group_keys_form_their_own_group(self, grouped_db):
        vectorized, _ = _both(
            grouped_db, "SELECT m.g, count(*) AS n FROM m GROUP BY m.g"
        )
        assert sorted(vectorized.result.rows, key=repr) == sorted(
            [("a", 2), ("b", 2), (None, 2)], key=repr
        )

    def test_sum_avg_over_all_null_group_return_null_count_zero(self, grouped_db):
        vectorized, _ = _both(
            grouped_db,
            "SELECT m.g, sum(m.x) AS s, avg(m.x) AS a, count(m.x) AS n, "
            "count(*) AS rows_n FROM m GROUP BY m.g",
        )
        by_key = {row[0]: row[1:] for row in vectorized.result.rows}
        assert by_key["a"] == (4, 4.0, 1, 2)
        assert by_key["b"] == (None, None, 0, 2)  # all-NULL group
        assert by_key[None] == (2, 2.0, 1, 2)  # NULL key still aggregates

    def test_sum_avg_over_empty_input_return_null_count_zero(self, grouped_db):
        vectorized, _ = _both(
            grouped_db,
            "SELECT sum(m.x) AS s, avg(m.x) AS a, count(m.x) AS n, count(*) AS r "
            "FROM m WHERE m.id > 100",
        )
        assert vectorized.result.rows == [(None, None, 0, 0)]

    def test_sum_of_negative_zero_keeps_its_sign_on_both_engines(self):
        """IEEE signed zeros: seeding SUM from the first value, not int 0."""
        import math

        db = Database()
        db.create_table(
            make_schema("f", [("id", ColumnType.INT), ("x", ColumnType.FLOAT)])
        )
        db.load_rows("f", [(1, -0.0), (2, -0.0)])
        db.finalize_load()
        planned = db.plan("SELECT sum(f.x) AS s, avg(f.x) AS a FROM f")
        vectorized = db.executor.execute(planned.plan).result.rows
        ref = db.executor_for(ExecutionEngine.REFERENCE).execute(planned.plan).result.rows
        assert vectorized == ref
        assert math.copysign(1.0, vectorized[0][0]) == -1.0
        assert math.copysign(1.0, ref[0][0]) == -1.0

    def test_grouped_query_over_empty_input_has_zero_groups(self, grouped_db):
        vectorized, _ = _both(
            grouped_db,
            "SELECT m.g, sum(m.x) AS s FROM m WHERE m.id > 100 GROUP BY m.g",
        )
        assert vectorized.result.rows == []


class TestOrderByLimitEdgeCases:
    """Pins for deterministic NULL placement and LIMIT/OFFSET bounds."""

    @pytest.fixture()
    def ordered_db(self) -> Database:
        db = Database()
        db.create_table(
            make_schema(
                "o",
                [("id", ColumnType.INT), ("x", ColumnType.INT)],
                primary_key="id",
            )
        )
        db.load_rows("o", [(1, 5), (2, None), (3, 1), (4, None), (5, 3)])
        db.finalize_load()
        return db

    def test_order_by_asc_puts_nulls_last(self, ordered_db):
        vectorized, _ = _both(ordered_db, "SELECT o.id FROM o ORDER BY o.x ASC")
        # NULLS LAST, and ties (both NULL) keep input order: 2 before 4.
        assert list(vectorized.result.rows) == [(3,), (5,), (1,), (2,), (4,)]

    def test_order_by_desc_puts_nulls_first(self, ordered_db):
        vectorized, _ = _both(ordered_db, "SELECT o.id FROM o ORDER BY o.x DESC")
        assert list(vectorized.result.rows) == [(2,), (4,), (1,), (5,), (3,)]

    def test_limit_zero_is_empty(self, ordered_db):
        vectorized, _ = _both(
            ordered_db, "SELECT o.id FROM o ORDER BY o.id LIMIT 0"
        )
        assert vectorized.result.rows == []

    def test_offset_past_the_end_is_empty(self, ordered_db):
        vectorized, _ = _both(
            ordered_db, "SELECT o.id FROM o ORDER BY o.id LIMIT 3 OFFSET 99"
        )
        assert vectorized.result.rows == []

    def test_limit_overshooting_returns_all_remaining(self, ordered_db):
        vectorized, _ = _both(
            ordered_db, "SELECT o.id FROM o ORDER BY o.id LIMIT 99 OFFSET 3"
        )
        assert list(vectorized.result.rows) == [(4,), (5,)]

    def test_distinct_keeps_first_occurrence_order(self, ordered_db):
        vectorized, _ = _both(ordered_db, "SELECT DISTINCT o.x FROM o")
        assert list(vectorized.result.rows) == [(5,), (None,), (1,), (3,)]


class TestJoinEdgeCases:
    def test_join_on_all_null_key_column_is_empty(self, edge_db):
        vectorized, _ = _both(
            edge_db, "SELECT count(t.id) AS n FROM t, u WHERE t.k = u.k"
        )
        assert vectorized.result.rows == [(0,)]

    def test_join_with_empty_input_is_empty(self, edge_db):
        vectorized, _ = _both(
            edge_db,
            "SELECT count(empty_table.id) AS n FROM empty_table, u "
            "WHERE empty_table.w = u.k",
        )
        assert vectorized.result.rows == [(0,)]

    def test_null_keys_never_match_null_keys(self):
        """NULL = NULL is not a match, in either engine, on either side."""
        columns_left = [("l", "k")]
        columns_right = [("r", "k")]
        rows_left = [(None,), (1,), (None,)]
        rows_right = [(None,), (1,), (2,)]
        join = [BoundJoin("l", "k", "r", "k")]
        vectorized = join_results(
            ColumnBatch.from_rows(columns_left, rows_left),
            ColumnBatch.from_rows(columns_right, rows_right),
            join,
        )
        oracle = reference.join_results(
            ResultSet(columns_left, rows_left), ResultSet(columns_right, rows_right), join
        )
        assert vectorized.rows == oracle.rows == [(1, 1)]

    def test_repeated_and_null_composite_keys_keep_oracle_row_order(self):
        """Probe-side-major, build insertion order within a key; a composite
        key with a NULL component matches nothing, on either side."""
        columns_left = [("l", "a"), ("l", "b"), ("l", "id")]
        columns_right = [("r", "a"), ("r", "b"), ("r", "id")]
        rows_left = [(1, 1, 10), (1, None, 11), (2, 2, 12), (1, 1, 13)]
        rows_right = [
            (2, 2, 20), (1, 1, 21), (None, 1, 22), (3, 3, 23), (1, 1, 24), (1, None, 25),
        ]
        joins = [BoundJoin("l", "a", "r", "a"), BoundJoin("l", "b", "r", "b")]
        vectorized = join_results(
            ColumnBatch.from_rows(columns_left, rows_left),
            ColumnBatch.from_rows(columns_right, rows_right),
            joins,
        )
        oracle = reference.join_results(
            ResultSet(columns_left, rows_left), ResultSet(columns_right, rows_right), joins
        )
        assert vectorized.rows == oracle.rows
        assert [(row[2], row[5]) for row in vectorized.rows] == [
            (12, 20), (10, 21), (13, 21), (10, 24), (13, 24),
        ]

    def test_join_of_two_empty_inputs(self):
        join = [BoundJoin("l", "k", "r", "k")]
        vectorized = join_results(
            ColumnBatch.from_rows([("l", "k")], []),
            ColumnBatch.from_rows([("r", "k")], []),
            join,
        )
        assert len(vectorized) == 0
        assert vectorized.rows == []


class TestFilterNullEdgeCases:
    @pytest.mark.parametrize(
        "sql,expected",
        [
            # <> never matches NULL.
            ("SELECT t.id FROM t WHERE t.k <> 5", []),
            # IN never matches NULL.
            ("SELECT t.id FROM t WHERE t.k IN (1, 2)", []),
            # BETWEEN never matches NULL.
            ("SELECT t.id FROM t WHERE t.k BETWEEN 0 AND 10", []),
            # NOT LIKE never matches NULL (t.v of row 2 is NULL).
            ("SELECT t.id FROM t WHERE t.v NOT LIKE 'z%'", [(1,), (3,)]),
            # IS NULL / IS NOT NULL are the only NULL-selecting predicates.
            ("SELECT t.id FROM t WHERE t.v IS NULL", [(2,)]),
            ("SELECT t.id FROM t WHERE t.v IS NOT NULL", [(1,), (3,)]),
        ],
    )
    def test_null_filter_semantics(self, edge_db, sql, expected):
        vectorized, _ = _both(edge_db, sql)
        assert sorted(vectorized.result.rows) == expected

    def test_projection_preserves_nulls(self, edge_db):
        vectorized, _ = _both(edge_db, "SELECT t.v FROM t")
        assert list(vectorized.result.rows) == [("x",), (None,), ("y",)]

    def test_index_in_scan_with_duplicate_keys(self, edge_db):
        """Duplicate IN keys must not double-fetch (work stays deduplicated)."""
        vectorized, _ = _both(
            edge_db, "SELECT count(u.id) AS n FROM u WHERE u.id IN (1, 1, 2)"
        )
        assert vectorized.result.rows == [(2,)]


class TestZeroCopyScanSafety:
    def test_scan_batch_is_stable_if_table_grows(self, edge_db):
        """A scan batch wraps storage zero-copy; later inserts must not leak in.

        This hazard is introduced by the columnar engine (the reference
        engine copies rows eagerly), so the batch bounds every read by the
        length captured at scan time.
        """
        from repro.executor.operators import scan_table

        batch, fetched = scan_table(edge_db.catalog, "u", "u", [])
        assert fetched == 2
        edge_db.catalog.table("u").insert_row((3, 7))
        assert len(batch) == 2
        assert batch.column_values("u", "id") == [1, 2]
        assert batch.rows == [(1, 1), (2, 2)]


class TestColumnWiseLoadRollback:
    def test_failed_bulk_load_leaves_no_ragged_columns(self):
        from repro.errors import StorageError
        from repro.catalog.schema import ColumnDef, TableSchema
        from repro.storage.table import Table

        schema = TableSchema(
            name="strict",
            columns=(
                ColumnDef("a", ColumnType.INT),
                ColumnDef("b", ColumnType.INT, nullable=False),
            ),
        )
        table = Table(schema)
        table.insert_row((1, 10))
        with pytest.raises(StorageError):
            table.load_columns([[2, 3], [20, None]])  # NULL into non-nullable b
        assert table.row_count == 1
        assert table.column_values("a") == [1]
        assert table.column_values("b") == [10]
        # The table stays fully usable after the rolled-back load.
        table.load_columns([[2], [20]])
        assert table.row(1) == (2, 20)

    def test_failed_coercion_rolls_back_too(self):
        from repro.catalog.schema import ColumnDef, TableSchema
        from repro.errors import CatalogError
        from repro.storage.table import Table

        schema = TableSchema(
            name="ints",
            columns=(ColumnDef("a", ColumnType.INT), ColumnDef("b", ColumnType.INT)),
        )
        table = Table(schema)
        with pytest.raises(CatalogError):
            table.load_columns([[1, 2, 3], [1, "xx", 3]])  # 'xx' fails coercion
        assert table.row_count == 0
        assert table.column_values("a") == []
        assert table.column_values("b") == []
        table.insert_row((9, 9))
        assert table.row(0) == (9, 9)


class TestTempTableFromBatch:
    def test_materialize_batch_with_nulls_column_wise(self, edge_db):
        planned = edge_db.plan("SELECT t.id, t.v FROM t")
        execution = edge_db.executor.execute(planned.plan)
        table = edge_db.create_temp_table_from_result(
            "__edge_temp",
            execution.result,
            [(("", "col0"), "id"), (("", "col1"), "v")],
        )
        assert table.row_count == 3
        assert table.column_values("v") == ["x", None, "y"]
        edge_db.drop_table("__edge_temp")
