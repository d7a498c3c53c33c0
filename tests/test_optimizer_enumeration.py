"""Unit tests for plan enumeration and the optimizer facade."""

import pytest

from repro.errors import PlanningError
from repro.optimizer import (
    DictInjection,
    ScanNode,
)
from repro.optimizer.plan import AccessPath, AggregateNode


class TestOptimizerOnStocks:
    def test_plan_structure(self, stock_db):
        planned = stock_db.plan(
            "SELECT count(t.id) AS n FROM company AS c, trades AS t "
            "WHERE c.symbol = 'SYM1' AND c.id = t.company_id"
        )
        assert isinstance(planned.plan, AggregateNode)
        joins = planned.plan.join_nodes()
        assert len(joins) == 1
        assert planned.stats.estimate_calls > 0
        assert planned.stats.candidates_considered > 0
        assert planned.stats.planning_seconds > 0

    def test_selective_filter_prefers_index_or_filtered_side_first(self, stock_db):
        planned = stock_db.plan(
            "SELECT c.id FROM company AS c, trades AS t "
            "WHERE c.symbol = 'SYM99' AND c.id = t.company_id"
        )
        join = planned.plan.join_nodes()[0]
        # The filtered company side should be the outer (probe) side.
        assert "c" in join.left.aliases

    def test_injection_changes_plan_choice(self, stock_db):
        sql = (
            "SELECT c.id FROM company AS c, trades AS t "
            "WHERE c.symbol = 'SYM1' AND c.id = t.company_id"
        )
        query = stock_db.parse(sql, name="q")
        default_plan = stock_db.plan(query)
        injection = DictInjection({frozenset({"c", "t"}): 2000.0})
        corrected_plan = stock_db.plan(query, injector=injection)
        # With the true (large) cardinality injected, the optimizer should not
        # keep an index-nested-loop plan that expects a handful of rows.
        default_join = default_plan.plan.join_nodes()[0]
        corrected_join = corrected_plan.plan.join_nodes()[0]
        assert corrected_join.estimated_rows > default_join.estimated_rows

    def test_single_table_query(self, stock_db):
        planned = stock_db.plan("SELECT c.id FROM company AS c WHERE c.symbol = 'SYM1'")
        assert isinstance(planned.plan.child, ScanNode)

    def test_index_scan_selected_for_pk_equality(self, stock_db):
        planned = stock_db.plan("SELECT c.symbol FROM company AS c WHERE c.id = 5")
        scan = planned.plan.child
        assert isinstance(scan, ScanNode)
        assert scan.access_path is AccessPath.INDEX_SCAN

    def test_cartesian_product_rejected(self, stock_db):
        query = stock_db.parse("SELECT c.id FROM company AS c, trades AS t WHERE c.id = 1")
        with pytest.raises(PlanningError):
            stock_db.plan(query)


class TestOptimizerOnImdb:
    def test_plans_medium_query_with_dp(self, imdb_db, job_queries):
        query_sql = next(q for q in job_queries if q.num_tables == 8)
        planned = imdb_db.plan(imdb_db.parse(query_sql.sql, name=query_sql.name))
        assert len(planned.plan.join_nodes()) == 7
        covered = planned.plan.join_nodes()[-1].aliases
        assert len(covered) == 8

    def test_plans_large_query_with_greedy(self, imdb_db, job_queries):
        query_sql = next(q for q in job_queries if q.num_tables == 17)
        planned = imdb_db.plan(imdb_db.parse(query_sql.sql, name=query_sql.name))
        assert len(planned.plan.join_nodes()) == 16
        assert planned.stats.estimates_by_size[1] == 17

    def test_estimate_counts_by_size_populated(self, imdb_db, job_queries):
        query_sql = next(q for q in job_queries if q.num_tables == 7)
        planned = imdb_db.plan(imdb_db.parse(query_sql.sql, name=query_sql.name))
        sizes = planned.stats.estimates_by_size
        assert sizes[1] == 7
        assert max(sizes) == 7
