"""Operator-level adaptive execution: correctness, accounting, cache/epoch.

The scenario is a deliberately mis-estimated self-join: ``records.val`` is
heavily skewed (90 of 100 rows share one value), so the optimizer's
uniformity assumption underestimates the join output by ~9x and the
re-optimization loop, with the in-memory handover, pauses at the hash-join
pipeline breaker to re-plan the remainder with the observed true cardinality.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro
from repro.catalog import ColumnType, make_schema
from repro.core import ReoptimizationInterceptor
from repro.core.triggers import ReoptimizationPolicy
from repro.engine import Database, EngineSettings, ExecutionEngine, QueryPipeline


SELF_JOIN_COUNT = (
    "SELECT count(*) AS n FROM records AS r1, records AS r2 "
    "WHERE r1.val = r2.val"
)
SELF_JOIN_STAR = (
    "SELECT * FROM records AS r1, records AS r2 WHERE r1.val = r2.val"
)
SELF_JOIN_GROUPED = (
    "SELECT r1.val AS v, count(*) AS n FROM records AS r1, records AS r2 "
    "WHERE r1.val = r2.val GROUP BY r1.val ORDER BY n DESC"
)


def build_skew_database(settings=None) -> Database:
    """100-row table whose ``val`` column is 90% one value (q-error ~9)."""
    db = Database(settings)
    db.create_table(
        make_schema(
            "records",
            [
                ("id", ColumnType.INT),
                ("gid", ColumnType.INT),
                ("val", ColumnType.INT),
                ("label", ColumnType.TEXT),
            ],
            primary_key="id",
        )
    )
    rows = []
    for i in range(100):
        val = 1 if i < 90 else (i - 88)
        rows.append((i + 1, i % 7, val, "x" if i % 2 else "y"))
    db.load_rows("records", rows)
    db.finalize_load()
    return db


def adaptive_policy(threshold: float = 4.0) -> ReoptimizationPolicy:
    return ReoptimizationPolicy(threshold=threshold)


def run_adaptively(db: Database, sql: str, policy: ReoptimizationPolicy):
    """One statement through the loop with the in-memory handover."""
    interceptor = ReoptimizationInterceptor(policy, adaptive=True)
    return QueryPipeline(db, [interceptor]).run(sql)


class TestAdaptiveExecutor:
    """The re-optimization loop with the in-memory handover."""

    def test_replans_once_and_matches_plain_rows(self):
        db = build_skew_database()
        plain = db.run(SELF_JOIN_COUNT).rows

        ctx = run_adaptively(build_skew_database(), SELF_JOIN_COUNT, adaptive_policy())
        assert ctx.reoptimized
        assert len(ctx.report.steps) == 1
        assert ctx.execution.result.rows == plain
        step = ctx.report.steps[0]
        assert step.q_error > 4.0
        assert step.actual_rows == step.temp_rows

    def test_execution_covers_every_round(self):
        ctx = run_adaptively(build_skew_database(), SELF_JOIN_COUNT, adaptive_policy())
        assert ctx.reoptimized
        execution, report = ctx.execution, ctx.report
        assert execution.total_work == report.total_execution_work
        assert execution.wall_seconds == report.wall_seconds
        assert execution.rows_processed == report.rows_processed
        # The first round's nodes are there beside the final plan's.
        final_nodes = {node.node_id for node in ctx.planned.plan.walk()}
        assert final_nodes < set(execution.node_metrics)

    def test_no_replan_below_threshold(self):
        db = build_skew_database()
        plain = db.run(SELF_JOIN_COUNT).rows
        ctx = run_adaptively(db, SELF_JOIN_COUNT, adaptive_policy(threshold=1000.0))
        assert not ctx.reoptimized
        assert ctx.execution.result.rows == plain

    def test_star_query_output_shape_restored(self):
        db = build_skew_database()
        plain = db.run(SELF_JOIN_STAR)

        ctx = run_adaptively(build_skew_database(), SELF_JOIN_STAR, adaptive_policy())
        assert ctx.reoptimized
        # Re-planning is invisible to the client: original qualified column
        # names in the original order, and the same row multiset.
        result = ctx.execution.result
        assert tuple(result.columns) == tuple(plain.execution.result.columns)
        assert Counter(result.rows) == Counter(plain.rows)

    def test_grouped_query_matches_plain_rows(self):
        db = build_skew_database()
        plain = db.run(SELF_JOIN_GROUPED).rows
        ctx = run_adaptively(build_skew_database(), SELF_JOIN_GROUPED, adaptive_policy())
        assert ctx.reoptimized
        assert ctx.execution.result.rows == plain

    def test_reference_engine_runs_adaptively(self):
        settings = EngineSettings(engine=ExecutionEngine.REFERENCE)
        db = build_skew_database(settings)
        plain = db.run(SELF_JOIN_COUNT).rows
        ctx = run_adaptively(db, SELF_JOIN_COUNT, adaptive_policy())
        assert ctx.reoptimized
        assert ctx.execution.engine is ExecutionEngine.REFERENCE
        assert ctx.execution.result.rows == plain

    def test_replanned_remainder_uses_observed_cardinality(self):
        db = build_skew_database()
        ctx = run_adaptively(db, SELF_JOIN_COUNT, adaptive_policy())
        assert ctx.reoptimized
        step = ctx.report.steps[0]
        # The remainder's scan of the pseudo-table is planned with the exact
        # observed cardinality, not a statistical estimate.
        scans = [
            node
            for node in ctx.report.final_planned.plan.walk()
            if node.label().startswith("Seq Scan on " + step.temp_table)
        ]
        assert scans and scans[0].estimated_rows == step.actual_rows

    def test_pseudo_tables_dropped_and_epoch_stable(self):
        db = build_skew_database()
        epoch_before = db.catalog.epoch
        ctx = run_adaptively(db, SELF_JOIN_COUNT, adaptive_policy())
        assert ctx.reoptimized
        assert db.catalog.table_names() == ["records"]
        assert db.catalog.epoch == epoch_before

    def test_cheaper_than_materialize_and_rewrite_simulation(self):
        policy = adaptive_policy()
        db = build_skew_database()
        with repro.connect(db, policy=policy, adaptive=False) as conn:
            simulated = conn.execute(SELF_JOIN_COUNT).context
        db2 = build_skew_database()
        with repro.connect(db2, policy=policy, adaptive=True) as conn:
            adaptive = conn.execute(SELF_JOIN_COUNT).context
        assert simulated.reoptimized and adaptive.reoptimized
        assert adaptive.rows == simulated.rows
        # No materialization surcharge and no re-scan of the intermediate
        # from storage: the in-executor loop is strictly cheaper.
        assert adaptive.execution_seconds < simulated.execution_seconds

    def test_max_iterations_respected(self):
        db = build_skew_database()
        policy = ReoptimizationPolicy(threshold=4.0, max_iterations=1)
        ctx = run_adaptively(db, SELF_JOIN_COUNT, policy)
        assert len(ctx.report.steps) <= 1
        assert ctx.execution.result.rows == build_skew_database().run(SELF_JOIN_COUNT).rows

    def test_short_query_cutoff_disables_adaptivity(self):
        db = build_skew_database()
        policy = ReoptimizationPolicy(threshold=4.0, min_query_seconds=1e9)
        ctx = run_adaptively(db, SELF_JOIN_COUNT, policy)
        assert not ctx.reoptimized


class TestAdaptiveConnection:
    def test_cursor_report_and_explain(self):
        db = build_skew_database()
        conn = repro.connect(
            db, policy=adaptive_policy(), adaptive=True, capture_explain=True
        )
        cursor = conn.execute(SELF_JOIN_COUNT)
        ctx = cursor.context
        assert ctx.reoptimized
        assert len(ctx.report.steps) == 1
        step = ctx.report.steps[0]
        assert step.materialize_work == 0.0
        assert "in memory" in step.create_sql
        text = cursor.explain_text
        assert "Re-plan points:" in text
        assert f"Seq Scan on {step.temp_table} {step.temp_table} [handed over]" in text
        assert f"re-planned over {step.temp_table} ({step.temp_rows} rows)" in text
        assert "q_error=" in text
        assert "batches=" in text

    def test_rewrite_loop_explain_names_its_re_plans(self):
        db = build_skew_database()
        conn = repro.connect(
            db, policy=adaptive_policy(), adaptive=False, capture_explain=True
        )
        cursor = conn.execute(SELF_JOIN_COUNT)
        step = cursor.context.report.steps[0]
        assert step.create_sql.startswith(f"CREATE TEMP TABLE {step.temp_table}")
        text = cursor.explain_text
        assert "Re-plan points:" in text
        assert f"Seq Scan on {step.temp_table} {step.temp_table} [handed over]" in text
        assert f"re-planned over {step.temp_table} ({step.temp_rows} rows)" in text
        assert "batches=" in text

    def test_settings_flag_enables_adaptive(self):
        settings = EngineSettings(adaptive=True)
        db = build_skew_database(settings)
        conn = repro.connect(db, policy=adaptive_policy())
        ctx = conn.execute(SELF_JOIN_COUNT).context
        assert ctx.reoptimized
        assert ctx.report.steps[0].materialize_work == 0.0

    def test_metrics_interceptor_accounts_adaptive_statements(self):
        db = build_skew_database()
        conn = repro.connect(db, policy=adaptive_policy(), adaptive=True)
        conn.execute(SELF_JOIN_COUNT)
        assert conn.metrics.statements == 1
        assert conn.metrics.reoptimized_statements == 1
        assert conn.metrics.execution_seconds > 0.0


class _RoundFault(RuntimeError):
    pass


@pytest.mark.parametrize("adaptive", [True, False], ids=["in-memory", "temp-table"])
def test_a_failing_round_leaves_no_table_and_no_poisoned_connection(adaptive, monkeypatch):
    db = build_skew_database()
    conn = repro.connect(db, policy=adaptive_policy(), adaptive=adaptive)
    tables, epoch = set(db.catalog), db.catalog.epoch
    execute_staged = db.executor.execute_staged
    rounds = []

    def failing_second_round(plan, *args, **kwargs):
        rounds.append(plan)
        if len(rounds) == 2:
            raise _RoundFault("the second round fails")
        return execute_staged(plan, *args, **kwargs)

    monkeypatch.setattr(db.executor, "execute_staged", failing_second_round)
    with pytest.raises(_RoundFault):
        conn.execute(SELF_JOIN_COUNT)
    # The first round handed its rows over; the failure dropped that table.
    assert set(db.catalog) == tables
    assert db.catalog.epoch == epoch
    cursor = conn.execute(SELF_JOIN_COUNT)
    assert cursor.context.reoptimized
    assert cursor.fetchall() == build_skew_database().run(SELF_JOIN_COUNT).rows


class TestPlanCacheEpochInteraction:
    def test_replan_does_not_poison_cache_for_original_sql(self):
        db = build_skew_database()
        conn = repro.connect(db, policy=adaptive_policy(), adaptive=True)
        first = conn.execute(SELF_JOIN_COUNT)
        rows_first = first.fetchall()
        assert first.context.reoptimized
        assert conn.cache_stats.misses == 1 and conn.cache_stats.hits == 0

        second = conn.execute(SELF_JOIN_COUNT)
        rows_second = second.fetchall()
        # The second run is served from the cache with the *original* plan
        # (not the re-planned remainder), re-plans again, and returns the
        # same rows.
        assert conn.cache_stats.hits == 1
        assert second.context.plan_cached
        assert second.context.reoptimized
        assert rows_second == rows_first

    def test_adaptive_execution_leaves_epoch_alone(self):
        db = build_skew_database()
        conn = repro.connect(db, policy=adaptive_policy(), adaptive=True)
        epoch_before = db.catalog.epoch
        assert conn.execute(SELF_JOIN_COUNT).context.reoptimized
        assert db.catalog.epoch == epoch_before

    def test_analyze_mid_stream_bumps_epoch_and_invalidates(self):
        db = build_skew_database()
        conn = repro.connect(db, policy=adaptive_policy(), adaptive=True)
        conn.execute(SELF_JOIN_COUNT)
        epoch_before = db.catalog.epoch
        # A new row changes the statistics, so ANALYZE moves the epoch.
        db.load_rows("records", [(101, 3, 1, "x")])
        conn.analyze()
        assert db.catalog.epoch > epoch_before
        conn.execute(SELF_JOIN_COUNT)
        # ANALYZE invalidated the cached plan: a fresh miss, no stale hit.
        assert conn.cache_stats.misses == 2
        assert conn.cache_stats.hits == 0

    def test_legacy_simulation_handles_star_queries(self):
        # The SQL-rewrite simulation restores SELECT * output shape via the
        # same provenance projection the adaptive path uses: original
        # qualified column names, original order, same row multiset.
        db = build_skew_database()
        plain = db.run(SELF_JOIN_STAR)
        db2 = build_skew_database()
        with repro.connect(db2, policy=adaptive_policy(), adaptive=False) as conn:
            cursor = conn.execute(SELF_JOIN_STAR)
            assert cursor.context.reoptimized
            assert tuple(cursor.context.execution.result.columns) == tuple(
                plain.execution.result.columns
            )
            assert Counter(cursor.fetchall()) == Counter(plain.rows)


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
