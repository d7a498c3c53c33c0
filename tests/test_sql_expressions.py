"""Unit tests for expression binding: type inference, constant folding,
predicate classification and ``Cursor.description`` type codes."""

import pytest

import repro
from repro.catalog import ColumnType, make_schema
from repro.engine import Database
from repro.errors import BindError
from repro.sql import parse_expression
from repro.sql.ast import Literal
from repro.sql.binder import fold_constants


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.create_table(
        make_schema(
            "m",
            [
                ("id", ColumnType.INT),
                ("a", ColumnType.INT),
                ("b", ColumnType.INT),
                ("f", ColumnType.FLOAT),
                ("s", ColumnType.TEXT),
            ],
            primary_key="id",
        )
    )
    database.load_rows(
        "m",
        [
            (1, 2, 3, 1.5, "foo"),
            (2, 5, 0, 2.5, "bar"),
            (3, None, 7, None, None),
            (4, -4, 2, 0.5, "baz"),
        ],
    )
    database.finalize_load()
    return database


class TestTypeInference:
    def test_text_numeric_comparison_rejected(self, db):
        with pytest.raises(BindError, match="cannot compare"):
            db.parse("SELECT m.id FROM m WHERE m.s > 5")

    def test_arithmetic_over_text_rejected(self, db):
        with pytest.raises(BindError, match="needs numeric operands"):
            db.parse("SELECT m.s + 1 FROM m")

    def test_like_over_numeric_rejected(self, db):
        with pytest.raises(BindError, match="LIKE needs text operands"):
            db.parse("SELECT m.id FROM m WHERE m.a LIKE 'x%'")

    def test_boolean_connective_needs_boolean_operands(self, db):
        # Top-level ANDs split into conjuncts at parse time, so the bare
        # column surfaces as a non-boolean WHERE term; a nested ``OR`` hits
        # the connective's own operand check.
        with pytest.raises(BindError, match="not a boolean expression"):
            db.parse("SELECT m.id FROM m WHERE m.a AND m.b = 1")
        with pytest.raises(BindError, match="argument of OR must be a boolean"):
            db.parse("SELECT m.id FROM m WHERE m.a OR m.b = 1")

    def test_where_term_must_be_boolean(self, db):
        with pytest.raises(BindError, match="not a boolean expression"):
            db.parse("SELECT m.id FROM m WHERE m.a + 1")

    def test_case_branches_must_share_a_type(self, db):
        with pytest.raises(BindError, match="incompatible result types"):
            db.parse(
                "SELECT CASE WHEN m.a > 0 THEN 1 ELSE 'no' END FROM m"
            )

    def test_sum_over_expression_allowed(self, db):
        run = db.run("SELECT sum(m.a * m.b) AS v FROM m")
        # 2*3 + 5*0 + NULL*7 (skipped) + -4*2 = 6 + 0 - 8 = -2
        assert run.rows == [(-2,)]

    def test_sum_over_text_expression_rejected(self, db):
        with pytest.raises(BindError, match="not defined for text column"):
            db.parse("SELECT sum(m.s) FROM m")


class TestConstantFolding:
    def test_literal_arithmetic_folds(self):
        assert fold_constants(parse_expression("1 + 2 * 3")) == Literal(7)

    def test_division_by_zero_folds_to_null(self):
        assert fold_constants(parse_expression("1 / 0")) == Literal(None)
        assert fold_constants(parse_expression("1 % 0")) == Literal(None)

    def test_integer_division_truncates_toward_zero(self):
        assert fold_constants(parse_expression("7 / 2")) == Literal(3)
        assert fold_constants(parse_expression("-7 / 2")) == Literal(-3)
        assert fold_constants(parse_expression("-7 % 2")) == Literal(-1)

    def test_null_propagates_through_arithmetic(self):
        assert fold_constants(parse_expression("1 + NULL")) == Literal(None)

    def test_three_valued_comparison_folds(self):
        assert fold_constants(parse_expression("1 = NULL")) == Literal(None)
        assert fold_constants(parse_expression("NOT (1 = NULL)")) == Literal(None)

    def test_boolean_tree_folds(self):
        assert fold_constants(parse_expression("1 = 1 AND 2 < 3")) == Literal(True)
        assert fold_constants(parse_expression("1 = 2 OR NULL IS NULL")) == Literal(
            True
        )

    def test_case_folds(self):
        expr = parse_expression("CASE WHEN 1 = 2 THEN 'a' ELSE 'b' END")
        assert fold_constants(expr) == Literal("b")

    def test_like_does_not_match_before_a_trailing_newline(self):
        # The pattern is anchored at the very end, not before a final newline.
        assert fold_constants(parse_expression("'abc\n' LIKE 'abc'")) == Literal(False)
        assert fold_constants(parse_expression("'abc\n' LIKE '%c'")) == Literal(False)
        assert fold_constants(parse_expression("'abc\n' LIKE 'abc_'")) == Literal(True)
        assert fold_constants(parse_expression("'abc' LIKE 'abc'")) == Literal(True)

    def test_partial_trees_do_not_fold(self):
        expr = parse_expression("a + 1 * 2")
        folded = fold_constants(expr)
        assert folded.to_sql() == "a + 2"


class TestConstantFilters:
    def test_always_true_filter_recorded_and_dropped(self, db):
        bound = db.parse("SELECT m.id FROM m WHERE 1 = 1 AND m.a > 0")
        assert len(bound.constant_filters) == 1
        assert bound.constant_filters[0].passes
        assert not bound.always_false
        assert len(bound.filters_for("m")) == 1

    def test_always_false_filter_marks_query(self, db):
        bound = db.parse("SELECT m.id FROM m WHERE 2 < 1")
        assert bound.always_false

    def test_null_constant_filter_is_false(self, db):
        bound = db.parse("SELECT m.id FROM m WHERE NULL IS NOT NULL")
        assert bound.always_false

    def test_planner_prunes_always_false(self, db):
        run = db.run("SELECT m.id FROM m WHERE 2 < 1")
        assert run.rows == []
        # The scan below the one-time filter never executed.
        labels = {
            node.label(): node.actual_rows for node in run.planned.plan.walk()
        }
        assert "Result (One-Time Filter: false)" in labels
        scan_label = next(k for k in labels if k.startswith("Seq Scan"))
        assert labels[scan_label] is None

    def test_always_false_aggregate_output_shape(self, db):
        run = db.run("SELECT count(*) AS n, sum(m.a) AS s FROM m WHERE 1 = 2")
        assert run.rows == [(0, None)]

    def test_explain_displays_one_time_filter(self, db):
        text = db.explain("SELECT m.id FROM m WHERE 1 = 1")
        assert "Result (One-Time Filter: true)" in text
        assert "One-Time Filter: 1 = 1" in text

    def test_both_engines_agree_on_pruned_query(self, db):
        from repro.engine import ExecutionEngine

        planned = db.plan("SELECT m.id, m.s FROM m WHERE 2 < 1 AND m.a > 0")
        vectorized = db.executor_for(ExecutionEngine.VECTORIZED).execute(planned.plan)
        reference = db.executor_for(ExecutionEngine.REFERENCE).execute(planned.plan)
        assert vectorized.result.rows == reference.result.rows == []
        assert vectorized.total_work == reference.total_work == 0.0

    def test_no_column_unfoldable_predicate_rejected(self, db):
        with pytest.raises(BindError, match="references no FROM-clause column"):
            db.parse("SELECT m.id FROM m WHERE ? = 1")


class TestDescriptionTypeCodes:
    def _description(self, db, sql):
        with repro.connect(db) as connection:
            cursor = connection.execute(sql)
            return {name: code for name, code, *_ in cursor.description}

    def test_arithmetic_widening(self, db):
        codes = self._description(
            db,
            "SELECT m.a + m.b AS i, m.a + m.f AS x, m.a / m.b AS q FROM m",
        )
        assert codes["i"] is ColumnType.INT
        assert codes["x"] is ColumnType.FLOAT
        assert codes["q"] is ColumnType.INT  # integer division stays INT

    def test_case_common_type(self, db):
        codes = self._description(
            db,
            "SELECT CASE WHEN m.a > 0 THEN m.a ELSE m.f END AS c, "
            "CASE WHEN m.a > 0 THEN m.s ELSE 'x' END AS t FROM m",
        )
        assert codes["c"] is ColumnType.FLOAT  # INT widened with FLOAT
        assert codes["t"] is ColumnType.TEXT

    def test_comparison_is_int_coded(self, db):
        codes = self._description(db, "SELECT m.a > m.b AS flag FROM m")
        assert codes["flag"] is ColumnType.INT

    def test_aggregates_over_expressions(self, db):
        codes = self._description(
            db,
            "SELECT sum(m.a * m.b) AS si, sum(m.f * 2) AS sf, "
            "avg(m.a + 1) AS av, count(m.a * m.b) AS n, "
            "min(m.a - m.b) AS lo FROM m",
        )
        assert codes["si"] is ColumnType.INT
        assert codes["sf"] is ColumnType.FLOAT
        assert codes["av"] is ColumnType.FLOAT
        assert codes["n"] is ColumnType.INT
        assert codes["lo"] is ColumnType.INT

    def test_computed_column_display_name(self, db):
        with repro.connect(db) as connection:
            cursor = connection.execute("SELECT m.a + 1 FROM m")
            assert cursor.description[0][0] == "m.a + 1"


class TestComputedProjections:
    """Computed select-list expressions agree across both engines."""

    def test_projection_and_aggregate_agree(self, db):
        from repro.engine import ExecutionEngine

        sql = (
            "SELECT m.a * 2 - m.b AS v, CASE WHEN m.a IS NULL THEN -1 "
            "ELSE m.a % 3 END AS c FROM m"
        )
        planned = db.plan(sql)
        vectorized = db.executor_for(ExecutionEngine.VECTORIZED).execute(planned.plan)
        reference = db.executor_for(ExecutionEngine.REFERENCE).execute(planned.plan)
        assert vectorized.result.rows == reference.result.rows
        # -4 % 3 is -1: modulo takes the dividend's sign (C semantics).
        assert vectorized.result.rows == [(1, 2), (10, 2), (None, -1), (-10, -1)]

    def test_grouped_aggregate_over_expression(self, db):
        run = db.run(
            "SELECT m.b AS k, sum(m.a * m.a) AS ss FROM m GROUP BY m.b "
            "ORDER BY k"
        )
        # groups by b: 0 -> 25, 2 -> 16, 3 -> 4, 7 -> NULL (a is NULL)
        assert run.rows == [(0, 25), (2, 16), (3, 4), (7, None)]

    def test_division_by_zero_column_is_null(self, db):
        run = db.run("SELECT m.a / m.b AS q FROM m")
        assert run.rows == [(0,), (None,), (None,), (-2,)]

    def test_order_by_output_name_of_computed_column(self, db):
        # Descending sorts place NULLs first (the engine's documented rule).
        run = db.run("SELECT m.a + m.b AS s FROM m ORDER BY s DESC")
        assert run.rows == [(None,), (5,), (5,), (-2,)]

    def test_unprojected_sort_with_computed_items_rejected(self, db):
        with pytest.raises(BindError, match="computed expressions"):
            db.parse("SELECT m.a + 1 AS v FROM m ORDER BY m.b")

    def test_grouped_computed_item_over_group_key(self, db):
        run = db.run(
            "SELECT m.b * 10 AS k10, count(*) AS n FROM m GROUP BY m.b "
            "ORDER BY k10"
        )
        assert run.rows == [(0, 1), (20, 1), (30, 1), (70, 1)]

    def test_grouped_computed_item_over_non_key_rejected(self, db):
        with pytest.raises(BindError, match="must appear in the GROUP BY"):
            db.parse("SELECT m.a + m.b FROM m GROUP BY m.b")
