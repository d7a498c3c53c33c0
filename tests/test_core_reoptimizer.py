"""Unit tests for the re-optimization interceptor, feedback loop and
connection accounting."""

import pytest

from repro.core import (
    FeedbackLoop,
    ReoptimizationInterceptor,
    ReoptimizationPolicy,
)
from repro.engine import QueryPipeline, connect
from repro.executor.explain import explain_plan

SKEWED_SQL = (
    "SELECT count(t.id) AS n FROM company AS c, trades AS t "
    "WHERE c.symbol = 'SYM1' AND c.id = t.company_id"
)
UNSKEWED_SQL = (
    "SELECT count(t.id) AS n FROM company AS c, trades AS t "
    "WHERE c.symbol = 'SYM99' AND c.id = t.company_id"
)


def expected_count(db, company_id):
    return sum(1 for row in db.catalog.table("trades").iter_rows() if row[1] == company_id)


def reoptimize(db, query, policy, keep_temp_tables=False):
    """Drive the materialize-and-rewrite loop through a one-off pipeline."""
    pipeline = QueryPipeline(
        db,
        [
            ReoptimizationInterceptor(
                policy, keep_temp_tables=keep_temp_tables, adaptive=False
            )
        ],
    )
    return pipeline.run(bound=query).report


class TestReoptimizationPipeline:
    def test_triggers_on_skewed_query(self, stock_db):
        report = reoptimize(
            stock_db,
            stock_db.parse(SKEWED_SQL, name="skewed"),
            ReoptimizationPolicy(threshold=4),
        )
        assert report.reoptimized
        assert report.rows == [(expected_count(stock_db, 1),)]
        assert report.total_execution_work > 0
        assert report.total_planning_work > 0
        step = report.steps[0]
        assert step.q_error > 4
        assert step.temp_rows == expected_count(stock_db, 1)
        assert "CREATE TEMP TABLE" in step.create_sql
        # Temp tables are dropped by default.
        assert step.temp_table not in stock_db.catalog

    def test_does_not_trigger_on_well_estimated_query(self, stock_db):
        report = reoptimize(
            stock_db,
            stock_db.parse(UNSKEWED_SQL, name="plain"),
            ReoptimizationPolicy(threshold=32),
        )
        assert not report.reoptimized
        assert report.rows == [(expected_count(stock_db, 99),)]

    def test_keep_temp_tables(self, stock_db):
        report = reoptimize(
            stock_db,
            stock_db.parse(SKEWED_SQL, name="kept"),
            ReoptimizationPolicy(threshold=4),
            keep_temp_tables=True,
        )
        assert report.reoptimized
        assert report.steps[0].temp_table in stock_db.catalog
        stock_db.drop_table(report.steps[0].temp_table)

    @pytest.mark.parametrize(
        "select, tail, analyzed",
        [
            ("min(t.id) AS lo, min(u.id) AS v", "", set()),
            ("DISTINCT t.venue AS v, u.venue AS w, t.id AS i, u.id AS j", "", {"venue"}),
            (
                "t.venue AS v, u.venue AS w, min(t.id) AS i, min(u.id) AS j",
                " GROUP BY t.venue, u.venue ORDER BY v, w",
                {"venue"},
            ),
            ("max(t.id) AS hi, max(u.id) AS uhi", " AND t.shares < u.shares + 4000", {"shares"}),
        ],
        ids=["min-only", "distinct", "group-order", "residual"],
    )
    def test_transient_temp_table_analyzes_what_the_remainder_can_ask(
        self, stock_db_factory, select, tail, analyzed
    ):
        sql = (
            f"SELECT {select} FROM company AS c, trades AS t, trades AS u "
            "WHERE c.symbol = 'SYM1' AND c.id = t.company_id AND c.id = u.company_id "
            f"AND u.shares < 40{tail}"
        )
        policy = ReoptimizationPolicy(threshold=4)
        kept_db, loop_db = stock_db_factory(), stock_db_factory()
        kept = reoptimize(kept_db, kept_db.parse(sql), policy, keep_temp_tables=True)

        seen = {}
        create = loop_db.create_temp_table_from_result

        def recording(name, *args, **kwargs):
            table = create(name, *args, **kwargs)
            seen[name] = (set(table.schema.column_names), set(loop_db.catalog.stats(name).columns))
            return table

        loop_db.create_temp_table_from_result = recording
        dropped = reoptimize(loop_db, loop_db.parse(sql), policy)

        assert kept.reoptimized and len(kept.steps) == len(dropped.steps) == len(seen)
        # Whichever of t and u the trigger collapsed with c: the key the
        # remainder joins on is analyzed, the id that only feeds the select
        # list is not — unless DISTINCT estimates its output from it.
        columns, with_stats = seen[dropped.steps[0].temp_table]
        side = "t" if "t_id" in columns else "u"
        assert columns == {"c_id", f"{side}_id"} | {f"{side}_{name}" for name in analyzed}
        carried = set() if "DISTINCT" in select else {f"{side}_id"}
        assert with_stats == columns - carried
        kept_stats = kept_db.catalog.stats(kept.steps[0].temp_table)
        assert set(kept_stats.columns) == columns
        # Same estimates, so the same plans at the same charged cost.
        assert kept.rows == dropped.rows
        assert kept.total_planning_work == dropped.total_planning_work
        assert kept.total_execution_work == dropped.total_execution_work
        assert explain_plan(kept.final_planned.plan) == explain_plan(dropped.final_planned.plan)

    def test_min_query_seconds_skips_short_queries(self, stock_db):
        policy = ReoptimizationPolicy(threshold=4, min_query_seconds=1e9)
        report = reoptimize(
            stock_db, stock_db.parse(SKEWED_SQL, name="short"), policy
        )
        assert not report.reoptimized

    def test_rewritten_sql_script(self, stock_db):
        report = reoptimize(
            stock_db,
            stock_db.parse(SKEWED_SQL, name="script"),
            ReoptimizationPolicy(threshold=4),
        )
        script = report.rewritten_sql()
        assert "CREATE TEMP TABLE" in script
        assert script.strip().endswith(";")

    def test_results_match_plain_execution_on_workload(self, imdb_db, job_queries):
        """Re-optimized queries return exactly the same rows as plain execution."""
        policy = ReoptimizationPolicy(threshold=8)
        for job in job_queries[:6]:
            query = imdb_db.parse(job.sql, name=job.name)
            plain = imdb_db.run(query)
            report = reoptimize(imdb_db, query, policy)
            assert report.rows == plain.rows, job.name


class TestFeedbackLoop:
    def test_converges_on_skewed_query(self, stock_db):
        loop = FeedbackLoop(stock_db, threshold=4, max_iterations=10)
        result = loop.run(stock_db.parse(SKEWED_SQL, name="feedback"))
        assert 1 <= len(result.iterations) <= 10
        # The last iteration has no remaining violation.
        assert result.iterations[-1].corrected_subset is None or len(result.injection) > 0
        assert all(iteration.execution_seconds >= 0 for iteration in result.iterations)

    def test_no_iterations_needed_for_good_estimates(self, stock_db):
        loop = FeedbackLoop(stock_db, threshold=1e9)
        result = loop.run(stock_db.parse(UNSKEWED_SQL, name="feedback-good"))
        assert len(result.iterations) == 1
        assert result.iterations[0].corrected_subset is None


class TestReoptimizingConnection:
    def test_connection_runs_and_records_metrics(self, stock_db):
        conn = connect(
            stock_db, policy=ReoptimizationPolicy(threshold=4), plan_cache_size=0
        )
        first = conn.execute(SKEWED_SQL)
        first_rows = first.fetchall()
        second = conn.execute(UNSKEWED_SQL)
        assert first.context.reoptimized
        assert not second.context.reoptimized
        assert first_rows == [(expected_count(stock_db, 1),)]
        assert conn.metrics.statements == 2
        assert conn.metrics.execution_seconds > 0
        assert conn.metrics.planning_seconds > 0

    def test_connection_without_reoptimization(self, stock_db):
        conn = connect(stock_db, reoptimize=False, plan_cache_size=0)
        rows = conn.execute(UNSKEWED_SQL).fetchall()
        assert rows == [(expected_count(stock_db, 99),)]

    def test_metrics_totals_equal_per_query_sums(self, stock_db):
        """Connection totals must be the exact sum of per-query accounting.

        The mix deliberately includes a re-optimized run (multiple planning
        rounds, temp-table surcharge), a plain run, and a single-table query
        (never re-optimized), so the totals cover both accounting paths.
        """
        conn = connect(
            stock_db, policy=ReoptimizationPolicy(threshold=4), plan_cache_size=0
        )
        statements = [
            SKEWED_SQL,
            UNSKEWED_SQL,
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = 'tech'",
            SKEWED_SQL,
        ]
        contexts = [conn.execute(sql).context for sql in statements]

        assert conn.metrics.statements == len(statements)
        reoptimized = [ctx for ctx in contexts if ctx.reoptimized]
        plain = [ctx for ctx in contexts if not ctx.reoptimized]
        assert reoptimized and plain  # genuinely mixed

        execution_sum = sum(ctx.execution_seconds for ctx in contexts)
        planning_sum = sum(ctx.planning_seconds for ctx in contexts)
        assert conn.metrics.execution_seconds == pytest.approx(execution_sum)
        assert conn.metrics.planning_seconds == pytest.approx(planning_sum)

        # Each per-query figure is itself the sum of that query's rounds:
        # planning work of every round and execution work of every step
        # plus the final SELECT.
        for ctx in contexts:
            report = ctx.report
            step_work = sum(step.charged_work for step in report.steps)
            final_work = report.final_execution.total_work
            assert report.total_execution_work == pytest.approx(step_work + final_work)
            # A re-optimized query planned more than once, so it must charge
            # strictly more planning than its final round alone.
            final_planning = report.final_planned.stats.planning_work
            if ctx.reoptimized:
                assert report.total_planning_work > final_planning
            else:
                assert report.total_planning_work == pytest.approx(final_planning)
