"""Unit tests for Q-error triggers and the true-cardinality oracle."""

import pytest

from repro.core import (
    ReoptimizationPolicy,
    TrueCardinalityOracle,
    q_error,
)
from repro.errors import CardinalityError


class TestQError:
    def test_symmetry(self):
        assert q_error(10, 1000) == q_error(1000, 10) == 100.0

    def test_exact(self):
        assert q_error(50, 50) == 1.0

    def test_clamped_at_one_row(self):
        assert q_error(0, 10) == 10.0
        assert q_error(10, 0) == 10.0
        assert q_error(0, 0) == 1.0


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReoptimizationPolicy(threshold=0.5)
        with pytest.raises(ValueError):
            ReoptimizationPolicy(trigger_site="middle")
        with pytest.raises(ValueError):
            ReoptimizationPolicy(max_iterations=0)

    def test_defaults(self):
        policy = ReoptimizationPolicy()
        assert policy.threshold == 32.0
        assert policy.trigger_site == "lowest"


class TestTriggerSelection:
    SQL = (
        "SELECT count(t.id) AS n FROM company AS c, trades AS t "
        "WHERE c.symbol = 'SYM1' AND c.id = t.company_id"
    )

    def test_violating_join_found_under_skew(self, stock_db):
        planned = stock_db.plan(self.SQL)
        policy = ReoptimizationPolicy(threshold=4)
        staged = stock_db.executor.execute_staged(planned.plan, policy.violates)
        (join,) = planned.plan.join_nodes()
        assert staged.trigger is join
        assert policy.violates(join, len(staged.trigger_result))
        assert q_error(join.estimated_rows, join.actual_rows) > 4

    def test_no_violation_above_huge_threshold(self, stock_db):
        planned = stock_db.plan(self.SQL)
        policy = ReoptimizationPolicy(threshold=1e9)
        staged = stock_db.executor.execute_staged(planned.plan, policy.violates)
        assert staged.trigger is None
        assert staged.row_count == 1

    def test_a_round_without_a_predicate_never_triggers(self, stock_db):
        planned = stock_db.plan(self.SQL)
        assert stock_db.executor.execute_staged(planned.plan).trigger is None


class TestOracle:
    SQL = (
        "SELECT count(t.id) AS n FROM company AS c, trades AS t "
        "WHERE c.symbol = 'SYM1' AND c.id = t.company_id"
    )

    def test_true_cardinality_matches_execution(self, stock_db):
        oracle = TrueCardinalityOracle(stock_db)
        query = stock_db.parse(self.SQL, name="oracle-test")
        expected = sum(
            1 for row in stock_db.catalog.table("trades").iter_rows() if row[1] == 1
        )
        assert oracle.true_cardinality(query, {"c", "t"}) == expected
        assert oracle.true_cardinality(query, {"c"}) == 1

    def test_memoization(self, stock_db):
        oracle = TrueCardinalityOracle(stock_db)
        query = stock_db.parse(self.SQL, name="oracle-memo")
        oracle.true_cardinality(query, {"c", "t"})
        computed = oracle.subsets_computed
        oracle.true_cardinality(query, {"c", "t"})
        assert oracle.subsets_computed == computed

    def test_release_keeps_cardinalities(self, stock_db):
        oracle = TrueCardinalityOracle(stock_db)
        query = stock_db.parse(self.SQL, name="oracle-release")
        value = oracle.true_cardinality(query, {"c", "t"})
        oracle.release_intermediates(query)
        assert oracle.true_cardinality(query, {"c", "t"}) == value

    def test_clear(self, stock_db):
        oracle = TrueCardinalityOracle(stock_db)
        query = stock_db.parse(self.SQL, name="oracle-clear")
        oracle.true_cardinality(query, {"c", "t"})
        oracle.clear(query)
        assert oracle.subsets_computed >= 1

    def test_unknown_alias_rejected(self, stock_db):
        oracle = TrueCardinalityOracle(stock_db)
        query = stock_db.parse(self.SQL, name="oracle-bad")
        with pytest.raises(CardinalityError):
            oracle.true_cardinality(query, {"zz"})
        with pytest.raises(CardinalityError):
            oracle.true_cardinality(query, set())

    def test_perfect_injection_wrapper(self, stock_db):
        oracle = TrueCardinalityOracle(stock_db)
        query = stock_db.parse(self.SQL, name="oracle-inject")
        injector = oracle.perfect_injection(1)
        assert injector.lookup(query, frozenset({"c"})) == 1.0
        assert injector.lookup(query, frozenset({"c", "t"})) is None

    def test_oracle_on_imdb_query_consistent_with_executor(self, imdb_db, job_queries):
        """Oracle counts match actually executing the full query's join."""
        job = next(q for q in job_queries if q.num_tables == 4)
        query = imdb_db.parse(job.sql, name=job.name)
        planned = imdb_db.plan(query)
        execution = imdb_db.execute_plan(planned)
        top_join = planned.plan.join_nodes()[-1]
        oracle = TrueCardinalityOracle(imdb_db)
        assert (
            oracle.true_cardinality(query, set(query.aliases)) == top_join.actual_rows
        )
        assert execution.row_count == 1  # aggregate output
