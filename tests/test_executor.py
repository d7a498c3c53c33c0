"""Unit tests for expression compilation, operators and the executor."""

import pytest

from repro.errors import ExecutionError
from repro.executor import ResultSet, explain_plan
from repro.executor.expressions import ColumnResolver, compile_conjunction
from repro.executor.operators import aggregate_result, join_results, scan_table
from repro.optimizer.plan import JoinAlgorithm
from repro.sql.values import like

from repro.sql.ast import (
    AggregateFunc,
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    InList,
    Literal,
    SelectItem,
)
from repro.sql.binder import BoundJoin


class TestLikeMatch:
    def test_wildcards(self):
        assert like("Downey, Robert 1", "%Downey%Robert%") is True
        assert like("Smith, John", "%Downey%") is not True
        assert like("X-files", "X%") is True
        assert like("abc", "a_c") is True
        assert like(None, "%") is not True


class TestPredicateCompilation:
    def test_conjunction(self):
        resolver = ColumnResolver([("t", "a"), ("t", "b")])
        predicate = compile_conjunction(
            [
                Comparison(ComparisonOp.GT, Column(ColumnRef("t", "a")), Literal(5)),
                InList(Column(ColumnRef("t", "b")), (Literal("x"), Literal("y"))),
            ],
            resolver,
        )
        assert predicate((10, "x"))
        assert not predicate((1, "x"))
        assert not predicate((10, "z"))
        assert not predicate((None, "x"))

    def test_empty_conjunction_accepts_everything(self):
        resolver = ColumnResolver([("t", "a")])
        assert compile_conjunction([], resolver)((1,))

    def test_unknown_column_rejected(self):
        resolver = ColumnResolver([("t", "a")])
        with pytest.raises(ExecutionError):
            compile_conjunction(
                [Comparison(ComparisonOp.EQ, Column(ColumnRef("t", "zz")), Literal(1))], resolver
            )


class TestOperators:
    def test_scan_with_filter(self, stock_db):
        result, fetched = scan_table(
            stock_db.catalog,
            "c",
            "company",
            [Comparison(ComparisonOp.EQ, Column(ColumnRef("c", "sector")), Literal("tech"))],
        )
        assert fetched == 150
        assert 0 < len(result) < 150
        assert ("c", "symbol") in result.columns

    def test_scan_through_index(self, stock_db):
        predicate = Comparison(ComparisonOp.EQ, Column(ColumnRef("c", "id")), Literal(5))
        result, fetched = scan_table(
            stock_db.catalog,
            "c",
            "company",
            [predicate],
            index_column="id",
            index_filter=predicate,
        )
        assert fetched == 1
        assert len(result) == 1

    def test_join_results_matches_manual_join(self, stock_db):
        left, _ = scan_table(
            stock_db.catalog,
            "c",
            "company",
            [Comparison(ComparisonOp.EQ, Column(ColumnRef("c", "symbol")), Literal("SYM1"))],
        )
        right, _ = scan_table(stock_db.catalog, "t", "trades", [])
        joined = join_results(left, right, [BoundJoin("c", "id", "t", "company_id")])
        expected = sum(
            1 for row in stock_db.catalog.table("trades").iter_rows() if row[1] == 1
        )
        assert len(joined) == expected
        assert len(joined.columns) == len(left.columns) + len(right.columns)

    def test_aggregate_min_count(self):
        result = ResultSet([("t", "a"), ("t", "b")], [(3, "x"), (1, "y"), (2, None)])
        aggregated = aggregate_result(
            result,
            [
                SelectItem(Column(ColumnRef("t", "a")), AggregateFunc.MIN, "lo"),
                SelectItem(Column(ColumnRef("t", "b")), AggregateFunc.COUNT, "n"),
            ],
        )
        assert aggregated.rows == [(1, 2)]

    def test_plain_projection(self):
        result = ResultSet([("t", "a"), ("t", "b")], [(3, "x"), (1, "y")])
        projected = aggregate_result(result, [SelectItem(Column(ColumnRef("t", "b")))])
        assert projected.rows == [("x",), ("y",)]


class TestExecutor:
    SQL = (
        "SELECT count(t.id) AS n FROM company AS c, trades AS t "
        "WHERE c.symbol = 'SYM1' AND c.id = t.company_id"
    )

    def test_result_correct_and_instrumented(self, stock_db):
        planned = stock_db.plan(self.SQL)
        execution = stock_db.execute_plan(planned)
        expected = sum(
            1 for row in stock_db.catalog.table("trades").iter_rows() if row[1] == 1
        )
        assert execution.result.rows == [(expected,)]
        assert execution.total_work > 0
        assert execution.simulated_seconds > 0
        # Every plan node has metrics attached.
        for node in planned.plan.walk():
            assert node.node_id in execution.node_metrics
            assert node.actual_rows is not None

    def test_work_depends_on_algorithm(self, stock_db):
        """The same rows cost more under a (mis-chosen) nested loop."""
        planned = stock_db.plan(self.SQL)
        join = planned.plan.join_nodes()[0]
        baseline = stock_db.execute_plan(planned).total_work
        join.algorithm = JoinAlgorithm.NESTED_LOOP
        nested = stock_db.execute_plan(planned).total_work
        assert nested > baseline

    def test_results_identical_across_algorithms(self, stock_db):
        planned = stock_db.plan(self.SQL)
        join = planned.plan.join_nodes()[0]
        reference = stock_db.execute_plan(planned).result.rows
        for algorithm in (
            JoinAlgorithm.HASH_JOIN,
            JoinAlgorithm.NESTED_LOOP,
            JoinAlgorithm.MERGE_JOIN,
        ):
            join.algorithm = algorithm
            assert stock_db.execute_plan(planned).result.rows == reference

    def test_explain_analyze_contains_actuals(self, stock_db):
        planned = stock_db.plan(self.SQL)
        execution = stock_db.execute_plan(planned)
        text = explain_plan(planned.plan, execution)
        assert "actual_rows" in text
        assert "Aggregate" in text
        assert "est_rows" in text
