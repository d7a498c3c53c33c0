"""Unit tests for the cardinality-strategy interface and engine configuration."""

import pytest

from repro.engine import Database, EngineSettings, connect
from repro.engine.settings import ESTIMATOR_NAMES
from repro.errors import ConfigError
from repro.optimizer.cardinality import MIN_ROWS, scan_upper_bound
from repro.optimizer.estimators import (
    STRATEGIES,
    FeedbackEstimator,
    SamplingEstimator,
    StatsEstimator,
    UpperBoundEstimator,
    create_strategy,
    strategy_names,
)
from repro.server import Server, ServerConfig

SKEWED_SQL = (
    "SELECT count(t.id) AS n FROM company AS c, trades AS t "
    "WHERE c.symbol = 'SYM1' AND c.id = t.company_id"
)


def _subset(query, *aliases):
    return frozenset(aliases)


class TestStrategyRegistry:
    def test_settings_names_match_registry(self):
        """ESTIMATOR_NAMES is spelled out in settings.py; keep it in sync."""
        assert sorted(ESTIMATOR_NAMES) == strategy_names()
        assert set(STRATEGIES) == set(ESTIMATOR_NAMES)

    def test_create_strategy_unknown_name(self, stock_db):
        with pytest.raises(ValueError, match="unknown estimator"):
            create_strategy("exact", stock_db.catalog)

    def test_feedback_strategy_shares_store(self, stock_db):
        strategy = create_strategy(
            "feedback", stock_db.catalog, feedback=stock_db.feedback
        )
        assert strategy.store is stock_db.feedback


class TestStatsEstimator:
    def test_matches_selectivity_scan_rows(self, stock_db):
        query = stock_db.parse(SKEWED_SQL, name="stats")
        strategy = StatsEstimator(stock_db.catalog)
        strategy.setup_for_query(query)
        expected = strategy.selectivity.scan_rows(
            query.table_for("c"), query.filters_for("c")
        )
        assert strategy.estimate_subset(query, _subset(query, "c")) == expected
        # Joins defer to the built-in model.
        assert strategy.estimate_subset(query, _subset(query, "c", "t")) is None

    def test_default_strategy_plans_identically(self, stock_db):
        """The default strategy must not change any plan (paper-figure gate)."""
        query = stock_db.parse(SKEWED_SQL, name="identical")
        with_strategy = stock_db.plan(query)
        stock_db.optimizer.strategy = None
        try:
            without_strategy = stock_db.plan(query)
        finally:
            stock_db.optimizer.strategy = stock_db._build_strategy("stats")
        assert with_strategy.plan.label() == without_strategy.plan.label()
        assert with_strategy.stats.planning_work == without_strategy.stats.planning_work
        for a, b in zip(
            with_strategy.plan.walk(), without_strategy.plan.walk()
        ):
            assert a.label() == b.label()
            assert a.estimated_rows == b.estimated_rows


class TestUpperBoundEstimator:
    def test_bounds_are_products_of_table_bounds(self, stock_db):
        query = stock_db.parse(SKEWED_SQL, name="bounds")
        strategy = UpperBoundEstimator(stock_db.catalog)
        single = strategy.estimate_subset(query, _subset(query, "t"))
        trades_rows = strategy.selectivity.table_rows("trades")
        bound = scan_upper_bound(stock_db.catalog, "trades", query.filters_for("t"))
        assert single == max(MIN_ROWS, bound if bound is not None else trades_rows)
        joint = strategy.estimate_subset(query, _subset(query, "c", "t"))
        company = strategy.estimate_subset(query, _subset(query, "c"))
        assert joint == pytest.approx(single * company)

    def test_never_underestimates_scans(self, stock_db):
        query = stock_db.parse(SKEWED_SQL, name="sound")
        strategy = UpperBoundEstimator(stock_db.catalog)
        actual = sum(
            1
            for row in stock_db.catalog.table("company").iter_rows()
            if row[1] == "SYM1"
        )
        assert strategy.estimate_subset(query, _subset(query, "c")) >= actual


class TestSamplingEstimator:
    def test_estimates_from_reservoir_sample(self, stock_db):
        stock_db.analyze()
        query = stock_db.parse(SKEWED_SQL, name="sampled")
        strategy = SamplingEstimator(stock_db.catalog)
        estimate = strategy.estimate_subset(query, _subset(query, "c"))
        sample = stock_db.catalog.stats("company").sample
        assert sample, "ANALYZE must maintain a reservoir sample"
        assert estimate is not None and estimate >= MIN_ROWS
        # The scaled match fraction can never exceed the table itself.
        assert estimate <= stock_db.catalog.table("company").row_count

    def test_defers_without_filters_or_sample(self, stock_db):
        query = stock_db.parse(SKEWED_SQL, name="defer")
        strategy = SamplingEstimator(stock_db.catalog)
        # No filters on the trades alias -> defer.
        assert strategy.estimate_subset(query, _subset(query, "t")) is None
        # Joins always defer.
        assert strategy.estimate_subset(query, _subset(query, "c", "t")) is None
        # Empty the sample -> defer.
        stock_db.catalog.stats("company").sample = []
        assert strategy.estimate_subset(query, _subset(query, "c")) is None

    def test_sample_disabled_by_settings(self):
        db = Database(EngineSettings(sample_rows=0))
        from repro.catalog import ColumnType, make_schema

        db.create_table(make_schema("x", [("id", ColumnType.INT)]))
        db.load_rows("x", [(i,) for i in range(50)])
        db.finalize_load()
        assert db.catalog.stats("x").sample == []


class TestFeedbackEstimator:
    def test_prefers_observed_cardinalities(self, stock_db):
        query = stock_db.parse(SKEWED_SQL, name="observed")
        strategy = FeedbackEstimator(stock_db.catalog, stock_db.feedback)
        subset = _subset(query, "c", "t")
        assert strategy.estimate_subset(query, subset) is None  # cold: defer
        stock_db.feedback.record(query, subset, 1234.0)
        assert strategy.estimate_subset(query, subset) == 1234.0
        assert "feedback" in strategy.describe()

    def test_reduces_replans_on_repeated_workload(self, stock_db):
        """Run 2 of the same statement re-plans less than run 1 (satellite)."""
        from repro.core import ReoptimizationPolicy

        stock_db.set_estimator("feedback")
        conn = connect(
            stock_db, policy=ReoptimizationPolicy(threshold=4), plan_cache_size=0
        )
        first = conn.execute(SKEWED_SQL).context
        assert first.reoptimized, "run 1 must trigger at least one re-plan"
        assert len(stock_db.feedback) > 0, "harvest must populate the store"
        second = conn.execute(SKEWED_SQL).context
        assert len(second.report.steps) < len(first.report.steps)
        assert not second.reoptimized
        assert second.rows == first.rows


class TestEngineSettingsResolution:
    def test_precedence_kwarg_beats_settings_beats_default(self):
        base = EngineSettings(plan_cache_size=2, estimator="sampling")
        resolved = EngineSettings.resolve(base, plan_cache_size=8)
        assert resolved.plan_cache_size == 8  # explicit kwarg wins
        assert resolved.estimator == "sampling"  # settings object second
        assert resolved.sample_rows == EngineSettings().sample_rows  # default

    def test_none_overrides_mean_unspecified(self):
        base = EngineSettings(plan_cache_size=3)
        assert EngineSettings.resolve(base, plan_cache_size=None).plan_cache_size == 3

    def test_unknown_setting_names_nearest_field(self):
        with pytest.raises(ConfigError, match="did you mean 'sample_rows'"):
            EngineSettings().replace(sample_row=3)
        with pytest.raises(ConfigError, match="unknown engine setting"):
            EngineSettings.resolve(None, plan_cash_size=7)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError, match="sample_rows"):
            EngineSettings(sample_rows=-1)
        with pytest.raises(ConfigError, match="unknown estimator"):
            EngineSettings(estimator="exact")

    def test_unknown_engine_is_a_config_error_naming_the_engines(self):
        with pytest.raises(ConfigError, match="expected one of: vectorized, reference"):
            EngineSettings(engine="parallel")

    def test_connect_rejects_removed_engine_and_knobs(self, stock_db):
        with pytest.raises(ConfigError, match="unknown execution engine 'parallel'"):
            connect(stock_db, engine="parallel")
        with pytest.raises(ConfigError, match="unknown engine setting 'workers'"):
            connect(stock_db, workers=4)

    def test_replace_returns_validated_copy(self):
        base = EngineSettings()
        derived = base.replace(estimator="feedback", plan_cache_size=6)
        assert (derived.estimator, derived.plan_cache_size) == ("feedback", 6)
        assert base.estimator == "stats"  # original untouched

    def test_connect_applies_overrides_to_existing_database(self, stock_db):
        conn = connect(stock_db, estimator="upper-bound")
        assert stock_db.settings.estimator == "upper-bound"
        assert stock_db.estimator_strategy.name == "upper-bound"
        conn.close()

    def test_connect_rejects_unknown_keyword(self, stock_db):
        with pytest.raises(ConfigError, match="did you mean 'estimator'"):
            connect(stock_db, estimater="stats")


class TestServerConfigResolution:
    def test_overrides_lower_onto_config(self, stock_db):
        server = Server(stock_db, ServerConfig(workers=2), queue_depth=3)
        try:
            assert server.config.workers == 2
            assert server.config.queue_depth == 3
        finally:
            server.close()

    def test_unknown_server_setting(self, stock_db):
        with pytest.raises(ConfigError, match="did you mean 'workers'"):
            Server(stock_db, worker=2)

    def test_invalid_server_values(self):
        with pytest.raises(ConfigError):
            ServerConfig(workers=0)
