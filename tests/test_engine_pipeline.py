"""Unit tests for the query-lifecycle pipeline, interceptors and plan cache."""

import pytest

import repro
from repro.core import ReoptimizationInterceptor, ReoptimizationPolicy
from repro.engine import (
    Database,
    EngineSettings,
    ExplainCaptureInterceptor,
    MetricsInterceptor,
    PlanCache,
    PlanCacheInterceptor,
    QueryInterceptor,
    QueryPipeline,
)
from repro.errors import InterfaceError, ParameterError

SKEWED_SQL = (
    "SELECT count(t.id) AS n FROM company AS c, trades AS t "
    "WHERE c.symbol = 'SYM1' AND c.id = t.company_id"
)
SIMPLE_SQL = "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = 'tech'"


class TestLifecycleStages:
    def test_stages_fill_context(self, stock_db):
        ctx = QueryPipeline(stock_db).run(SIMPLE_SQL)
        assert ctx.parsed is not None
        assert ctx.bound is not None
        assert ctx.planned is not None
        assert ctx.execution is not None
        assert ctx.rows == stock_db.run(SIMPLE_SQL).rows
        assert ctx.planning_seconds > 0
        assert ctx.execution_seconds > 0
        assert not ctx.reoptimized

    def test_bound_query_skips_parse_and_bind(self, stock_db):
        bound = stock_db.parse(SIMPLE_SQL)
        ctx = QueryPipeline(stock_db).run(bound=bound)
        assert ctx.parsed is None
        assert ctx.bound is bound

    def test_requires_sql_or_bound(self, stock_db):
        with pytest.raises(InterfaceError):
            QueryPipeline(stock_db).run()

    def test_params_substituted_in_bind_stage(self, stock_db):
        ctx = QueryPipeline(stock_db).run(
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = ?",
            params=("tech",),
        )
        assert ctx.rows == stock_db.run(SIMPLE_SQL).rows

    def test_unbound_parameters_rejected(self, stock_db):
        with pytest.raises(ParameterError):
            QueryPipeline(stock_db).run(
                "SELECT c.id FROM company AS c WHERE c.sector = ?"
            )


class TestInterceptorOrdering:
    def test_interceptors_wrap_outermost_first(self, stock_db):
        calls = []

        class Tracer(QueryInterceptor):
            def __init__(self, tag):
                self.tag = tag

            def around_plan(self, ctx, proceed):
                calls.append(f"enter-{self.tag}")
                ctx = proceed(ctx)
                calls.append(f"exit-{self.tag}")
                return ctx

        QueryPipeline(stock_db, [Tracer("a"), Tracer("b")]).run(SIMPLE_SQL)
        assert calls == ["enter-a", "enter-b", "exit-b", "exit-a"]

    def test_short_circuit_skips_inner_interceptors(self, stock_db):
        seen = []

        class ShortCircuit(QueryInterceptor):
            def around_plan(self, ctx, proceed):
                ctx.planned = stock_db.plan(ctx.bound)
                return ctx

        class Inner(QueryInterceptor):
            def around_plan(self, ctx, proceed):
                seen.append("inner")
                return proceed(ctx)

        ctx = QueryPipeline(stock_db, [ShortCircuit(), Inner()]).run(SIMPLE_SQL)
        assert seen == []
        assert ctx.execution is not None


class TestPlanCacheInterceptor:
    def _pipeline(self, db, cache):
        return QueryPipeline(db, [PlanCacheInterceptor(cache)])

    def test_repeat_statement_hits(self, stock_db):
        cache = PlanCache(8)
        pipeline = self._pipeline(stock_db, cache)
        first = pipeline.run(SIMPLE_SQL)
        second = pipeline.run(SIMPLE_SQL)
        assert not first.plan_cached
        assert second.plan_cached
        assert second.planned is first.planned
        assert second.rows == first.rows
        assert second.planning_seconds == 0.0
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_normalized_sql_shares_entries(self, stock_db):
        # Same statement, different whitespace/keyword case: one cache entry.
        cache = PlanCache(8)
        pipeline = self._pipeline(stock_db, cache)
        pipeline.run(SIMPLE_SQL)
        ctx = pipeline.run(
            "select   count(c.id) AS n\nFROM company AS c\nwhere c.sector = 'tech'"
        )
        assert ctx.plan_cached

    def test_analyze_invalidates(self, stock_db):
        cache = PlanCache(8)
        pipeline = self._pipeline(stock_db, cache)
        pipeline.run(SIMPLE_SQL)
        epoch = stock_db.catalog.epoch
        # A new row changes the statistics, so ANALYZE moves the epoch.
        stock_db.load_rows("company", [(1000, "SYM1000", "retail")])
        stock_db.analyze(["company"])
        assert stock_db.catalog.epoch > epoch
        ctx = pipeline.run(SIMPLE_SQL)
        assert not ctx.plan_cached

    def test_index_creation_invalidates(self, stock_db):
        cache = PlanCache(8)
        pipeline = self._pipeline(stock_db, cache)
        pipeline.run(SIMPLE_SQL)
        stock_db.create_index("company", "sector")
        ctx = pipeline.run(SIMPLE_SQL)
        assert not ctx.plan_cached

    def test_temp_table_ddl_invalidates(self, stock_db):
        cache = PlanCache(8)
        pipeline = self._pipeline(stock_db, cache)
        pipeline.run(SIMPLE_SQL)
        planned = stock_db.plan("SELECT c.id FROM company AS c WHERE c.id = 1")
        execution = stock_db.executor.execute(planned.plan.child)
        name = stock_db.next_temp_table_name()
        stock_db.create_temp_table_from_result(
            name, execution.result, [(("c", "id"), "c_id")]
        )
        ctx = pipeline.run(SIMPLE_SQL)
        assert not ctx.plan_cached
        stock_db.drop_table(name)
        ctx = pipeline.run(SIMPLE_SQL)
        assert not ctx.plan_cached  # drop bumped the epoch again

    def test_injector_bypasses_cache(self, stock_db):
        from repro.core import TrueCardinalityOracle

        cache = PlanCache(8)
        pipeline = self._pipeline(stock_db, cache)
        injector = TrueCardinalityOracle(stock_db).perfect_injection(17)
        bound = stock_db.parse(SKEWED_SQL)
        pipeline.run(bound=bound, injector=injector)
        pipeline.run(bound=bound, injector=injector)
        assert cache.stats.lookups == 0
        assert len(cache) == 0

    def test_lru_eviction(self, stock_db):
        cache = PlanCache(2)
        pipeline = self._pipeline(stock_db, cache)
        statements = [
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = 'tech'",
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = 'energy'",
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = 'health'",
        ]
        for sql in statements:
            pipeline.run(sql)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest statement was evicted; the newest two still hit.
        assert pipeline.run(statements[0]).plan_cached is False
        assert pipeline.run(statements[2]).plan_cached is True

    def test_stale_entries_pruned_eagerly_on_epoch_bump(self, stock_db):
        # A tiny cache must stay fully usable across ANALYZE churn: entries
        # stranded by an epoch bump are dropped on the first probe after it
        # (counted as stale_evictions), instead of squatting in the LRU
        # capacity and pushing out live plans.
        cache = PlanCache(2)
        pipeline = self._pipeline(stock_db, cache)
        statements = [
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = 'tech'",
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = 'energy'",
        ]
        for churn in range(3):  # repeated ANALYZE/DDL churn rounds
            for sql in statements:
                pipeline.run(sql)
            # Both plans are live: re-running hits without evicting anything.
            assert pipeline.run(statements[0]).plan_cached
            assert pipeline.run(statements[1]).plan_cached
            # A new row changes the statistics, so ANALYZE moves the epoch.
            stock_db.load_rows("company", [(1000 + churn, f"SYM{1000 + churn}", "retail")])
            stock_db.analyze(["company"])
        # Each bump pruned both stranded entries on the next probe (the last
        # bump's victims go on this final probe); the capacity-2 LRU itself
        # never had to evict a live plan.
        ctx = pipeline.run(statements[0])
        assert not ctx.plan_cached
        assert cache.stats.stale_evictions == 6
        assert cache.stats.evictions == 0
        assert len(cache) == 1

    def test_zero_capacity_disables(self, stock_db):
        cache = PlanCache(0)
        pipeline = self._pipeline(stock_db, cache)
        pipeline.run(SIMPLE_SQL)
        ctx = pipeline.run(SIMPLE_SQL)
        assert not ctx.plan_cached
        assert cache.stats.lookups == 0


class TestObservabilityInterceptors:
    def test_metrics_interceptor_accumulates(self, stock_db):
        metrics_interceptor = MetricsInterceptor()
        pipeline = QueryPipeline(stock_db, [metrics_interceptor])
        ctx = pipeline.run(SIMPLE_SQL)
        pipeline.run(SKEWED_SQL)
        metrics = metrics_interceptor.metrics
        assert metrics.statements == 2
        assert metrics.rows_returned == 2
        assert metrics.planning_seconds > 0
        assert metrics.execution_seconds > 0
        assert set(ctx.stage_seconds) == {"parse", "bind", "plan", "execute"}
        for stage in ("parse", "bind", "plan", "execute"):
            assert metrics.stage_wall_seconds[stage] >= ctx.stage_seconds[stage]

    def test_explain_capture(self, stock_db):
        pipeline = QueryPipeline(stock_db, [ExplainCaptureInterceptor()])
        ctx = pipeline.run(SIMPLE_SQL)
        assert ctx.explain_text is not None
        assert "actual_rows" in ctx.explain_text


class TestReoptimizationInterceptor:
    def test_reoptimizes_skewed_query(self, stock_db):
        pipeline = QueryPipeline(
            stock_db,
            [ReoptimizationInterceptor(ReoptimizationPolicy(threshold=4))],
        )
        ctx = pipeline.run(SKEWED_SQL)
        assert ctx.reoptimized
        assert ctx.report is not None and ctx.report.steps
        baseline = stock_db.run(SKEWED_SQL)
        assert ctx.rows == baseline.rows
        # Temp tables are cleaned up by default.
        assert all(not name.startswith("__temp") for name in stock_db.catalog)

    def test_cached_initial_plan_charges_no_initial_planning(self, stock_db):
        cache = PlanCache(8)
        policy = ReoptimizationPolicy(threshold=4)
        pipeline = QueryPipeline(
            stock_db,
            [PlanCacheInterceptor(cache), ReoptimizationInterceptor(policy)],
        )
        cold = pipeline.run(SIMPLE_SQL)
        warm = pipeline.run(SIMPLE_SQL)
        assert warm.plan_cached
        assert cold.report.total_planning_work > 0
        assert warm.report.total_planning_work == 0.0
        assert warm.rows == cold.rows


THREE_WAY_SQL = (
    "SELECT count(t.id) AS n FROM company AS c, trades AS t, trades AS u "
    "WHERE c.symbol = 'SYM1' AND c.id = t.company_id AND c.id = u.company_id"
)


def _cached_pipeline(db, cache, *interceptors):
    return QueryPipeline(db, [PlanCacheInterceptor(cache), *interceptors])


class TestAnalyzeContract:
    def test_unchanged_analyze_keeps_epoch_and_hits(self, stock_db):
        cache = PlanCache(8)
        pipeline = _cached_pipeline(stock_db, cache)
        pipeline.run(SIMPLE_SQL)
        epoch = stock_db.catalog.epoch
        stock_db.analyze(["company"])
        stock_db.analyze()
        assert stock_db.catalog.epoch == epoch
        assert pipeline.run(SIMPLE_SQL).plan_cached
        assert cache.stats.stale_evictions == 0

    def test_changed_statistics_bump_epoch(self, stock_db):
        cache = PlanCache(8)
        pipeline = _cached_pipeline(stock_db, cache)
        pipeline.run(SIMPLE_SQL)
        epoch = stock_db.catalog.epoch
        before = stock_db.catalog.stats("company")
        stock_db.load_rows("company", [(1000, "SYM1000", "tech")])
        assert stock_db.catalog.epoch == epoch  # a load alone moves nothing
        stock_db.analyze(["company"])
        assert stock_db.catalog.stats("company") != before
        assert stock_db.catalog.epoch > epoch
        ctx = pipeline.run(SIMPLE_SQL)
        assert not ctx.plan_cached
        assert ctx.rows == [(39,)]

    def test_a_zone_map_that_analyze_corrects_bumps_epoch(self):
        db = Database(EngineSettings(auto_foreign_key_indexes=False))
        db.create_table(
            "CREATE TABLE events (id INT, kind TEXT) "
            "PARTITION BY RANGE (id) VALUES (100, 200)"
        )
        db.load_rows("events", [(i, "x") for i in range(150)])
        db.analyze()
        epoch, stats = db.catalog.epoch, db.catalog.stats("events")
        db.analyze()
        assert db.catalog.epoch == epoch
        # A synopsis that drifted from the rows (wider than they are): the
        # statistics come out equal, the refreshed zone map does not.
        db.catalog.table("events").zone_map(1).zone("id").maximum = 10**6
        db.analyze(["events"])
        assert db.catalog.stats("events") == stats
        assert db.catalog.epoch > epoch
        assert db.catalog.table("events").zone_map(1).zone("id").maximum == 149


class TestTextAlias:
    @pytest.mark.parametrize(
        "sql, values",
        [
            (
                "SELECT count(t.id) AS n FROM trades AS t WHERE t.id = ?",
                [1, 1.0, True, -0.0, 0.0, "1"],
            ),
            (
                "SELECT count(t.id) AS n FROM trades AS t WHERE t.shares / ? > 2500",
                [1, 1.0, True, -0.0, 0.0, 2],
            ),
        ],
        ids=["equality", "division"],
    )
    def test_parameter_types_get_distinct_entries(self, stock_db, sql, values):
        # 1 == 1.0 == True and -0.0 == 0.0 as dict keys; each binds to a
        # different statement, so each must be its own alias and entry.
        cache = PlanCache(16)
        pipeline = _cached_pipeline(stock_db, cache)
        fresh = [QueryPipeline(stock_db).run(sql, params=(value,)) for value in values]
        for again in (False, True):
            for value, expected in zip(values, fresh):
                ctx = pipeline.run(sql, params=(value,))
                assert ctx.plan_cached is again, value
                assert ctx.bound.to_sql() == expected.bound.to_sql(), value
                assert ctx.rows == expected.rows, value
        assert len(cache) == len(values)
        assert cache.alias_count == len(values)

    def test_a_hit_skips_parse_and_bind(self, stock_db):
        cache = PlanCache(8)
        pipeline = _cached_pipeline(stock_db, cache)
        cold = pipeline.run(SIMPLE_SQL)
        warm = pipeline.run(SIMPLE_SQL)
        assert warm.plan_cached and warm.parsed is None
        assert warm.bound is cold.bound and warm.planned is cold.planned
        assert warm.rows == cold.rows
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_the_same_text_under_another_name_keeps_its_own_bound_query(self, stock_db):
        cache = PlanCache(8)
        pipeline = _cached_pipeline(stock_db, cache)
        first = pipeline.run(SIMPLE_SQL, name="first")
        second = pipeline.run(SIMPLE_SQL, name="second")
        assert second.plan_cached  # one canonical entry for both names
        assert (first.bound.name, second.bound.name) == ("first", "second")
        assert pipeline.run(SIMPLE_SQL, name="first").bound is first.bound
        assert pipeline.run(SIMPLE_SQL, name="second").bound is second.bound
        assert len(cache) == 1 and cache.alias_count == 2

    def test_an_entry_keeps_a_bounded_number_of_spellings(self, stock_db):
        from repro.engine.plancache import MAX_ALIASES_PER_ENTRY

        cache = PlanCache(8)
        pipeline = _cached_pipeline(stock_db, cache)
        spellings = [SIMPLE_SQL + " " * i for i in range(MAX_ALIASES_PER_ENTRY + 2)]
        for sql in spellings:
            pipeline.run(sql)
        assert len(cache) == 1 and cache.alias_count == MAX_ALIASES_PER_ENTRY
        oldest = pipeline.run(spellings[0])  # its alias went: parsed, then a hit
        assert oldest.plan_cached and oldest.parsed is not None
        newest = pipeline.run(spellings[-1])
        assert newest.plan_cached and newest.parsed is None

    def test_ddl_between_two_runs_misses(self, stock_db):
        cache = PlanCache(8)
        pipeline = _cached_pipeline(stock_db, cache)
        pipeline.run(SIMPLE_SQL)
        stock_db.create_table("CREATE TABLE extra (id INT)")
        ctx = pipeline.run(SIMPLE_SQL)
        assert not ctx.plan_cached and ctx.parsed is not None
        assert cache.alias_count == 1  # the stale alias went with its entry

    def test_injector_bypasses_the_alias(self, stock_db):
        from repro.core import TrueCardinalityOracle

        cache = PlanCache(8)
        pipeline = _cached_pipeline(stock_db, cache)
        injector = TrueCardinalityOracle(stock_db).perfect_injection(17)
        pipeline.run(SIMPLE_SQL)
        ctx = pipeline.run(SIMPLE_SQL, injector=injector)
        assert not ctx.plan_cached and ctx.parsed is not None
        assert cache.stats.lookups == 1

    def test_every_statement_is_one_probe(self, stock_db):
        with repro.connect(stock_db, reoptimize=False) as conn:
            statement = conn.prepare(
                "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = ?"
            )
            for _ in range(2):
                statement.execute(("tech",))
                conn.execute(SIMPLE_SQL)
                conn.execute(SIMPLE_SQL.lower())
                conn.execute(
                    "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = ?",
                    ("energy",),
                )
            stats = conn.cache_stats
            assert stats.hits + stats.misses == conn.metrics.statements == 8
            assert stats.misses == 2

    @pytest.mark.parametrize("adaptive", [False, True], ids=["temp-table", "in-memory"])
    def test_the_cached_bound_query_is_unchanged_by_execution(self, stock_db, adaptive):
        cache = PlanCache(8)
        policy = ReoptimizationPolicy(threshold=4)
        pipeline = _cached_pipeline(
            stock_db, cache, ReoptimizationInterceptor(policy, adaptive=adaptive)
        )
        cold = pipeline.run(THREE_WAY_SQL)
        warm = pipeline.run(THREE_WAY_SQL)
        assert cold.reoptimized and warm.reoptimized and warm.plan_cached
        assert warm.bound is cold.bound
        assert warm.bound == stock_db.parse(THREE_WAY_SQL)
        assert warm.rows == cold.rows == stock_db.run(THREE_WAY_SQL).rows


class TestCostAwareEviction:
    def test_the_cheap_plan_goes_before_the_expensive_one(self):
        cache = PlanCache(2)
        cache.put(("dear",), "dear plan", cost=5.0)
        cache.put(("cheap",), "cheap plan", cost=1.0)
        cache.put(("new",), "new plan", cost=1.0)
        # LRU would have dropped the older "dear" entry.
        assert cache.get(("cheap",)) is None
        assert cache.get(("dear",)) == "dear plan"
        assert cache.stats.evictions == 1

    def test_an_expensive_plan_nobody_uses_ages_out(self):
        cache = PlanCache(2)
        cache.put(("dear",), "dear plan", cost=3.0)
        for i in range(5):
            cache.put((f"cheap{i}",), "cheap plan", cost=1.0)
        # Each eviction raised the floor; cheap entries inserted later
        # outbid the untouched expensive one.
        assert cache.get(("dear",)) is None

    def test_equal_costs_evict_least_recently_used(self):
        cache = PlanCache(2)
        cache.put(("a",), "a", cost=1.0)
        cache.put(("b",), "b", cost=1.0)
        assert cache.get(("a",)) == "a"
        cache.put(("c",), "c", cost=1.0)
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == "a" and cache.get(("c",)) == "c"

    def test_an_expensive_join_plan_outlives_cheap_scans(self, stock_db):
        cache = PlanCache(2)
        pipeline = _cached_pipeline(stock_db, cache)
        pipeline.run(THREE_WAY_SQL)
        pipeline.run(SIMPLE_SQL)
        pipeline.run(SIMPLE_SQL.replace("tech", "energy"))
        assert cache.stats.evictions == 1
        assert pipeline.run(THREE_WAY_SQL).plan_cached

    def test_clear_drops_entries_aliases_and_credits(self, stock_db):
        cache = PlanCache(2)
        pipeline = _cached_pipeline(stock_db, cache)
        pipeline.run(THREE_WAY_SQL)
        pipeline.run(SIMPLE_SQL)
        cache.clear()
        assert len(cache) == 0 and cache.alias_count == 0
        assert not pipeline.run(SIMPLE_SQL).plan_cached
