"""Unit tests for the cardinality estimators and engine configuration."""

import pytest

from repro.engine import Database, EngineSettings, connect
from repro.errors import ConfigError
from repro.optimizer import DictInjection
from repro.optimizer.cardinality import MIN_ROWS, scan_upper_bound
from repro.optimizer.cost import CostParameters
from repro.optimizer.estimators import (
    FeedbackEstimator,
    UpperBoundEstimator,
    create_source,
)
from repro.optimizer.plan import ScanNode
from repro.server import Server, ServerConfig

SKEWED_SQL = (
    "SELECT count(t.id) AS n FROM company AS c, trades AS t "
    "WHERE c.symbol = 'SYM1' AND c.id = t.company_id"
)


def _subset(query, *aliases):
    return frozenset(aliases)


def _scan_rows(plan):
    return {
        node.alias: node.estimated_rows
        for node in plan.walk()
        if isinstance(node, ScanNode)
    }


class TestEstimatorRegistry:
    def test_stats_is_the_built_in_model(self, stock_db):
        assert stock_db.optimizer.source is None
        assert create_source("stats", stock_db.catalog, stock_db.feedback) is None

    def test_feedback_source_shares_store(self, stock_db):
        source = create_source("feedback", stock_db.catalog, stock_db.feedback)
        assert source.store is stock_db.feedback

    def test_set_estimator_unknown_name_is_a_config_error(self, stock_db):
        with pytest.raises(ConfigError, match="unknown estimator"):
            stock_db.set_estimator("exact")
        with pytest.raises(ConfigError, match="unknown estimator"):
            connect(stock_db, estimator="exact")
        assert stock_db.settings.estimator == "stats"

    def test_set_estimator_leaves_shared_settings_alone(self):
        shared = EngineSettings()
        db = Database(shared)
        db.set_estimator("upper-bound")
        assert db.settings.estimator == "upper-bound"
        assert isinstance(db.optimizer.source, UpperBoundEstimator)
        assert shared.estimator == "stats"
        assert Database(shared).optimizer.source is None


class TestOneChain:
    def test_callers_injector_answers_before_the_source(self, stock_db):
        query = stock_db.parse(SKEWED_SQL, name="chain")
        stock_db.set_estimator("upper-bound")
        try:
            injected = stock_db.plan(query, injector=DictInjection({frozenset({"c"}): 3}))
            bounded = stock_db.plan(query)
        finally:
            stock_db.set_estimator("stats")
        scans = _scan_rows(injected.plan)
        bounds = _scan_rows(bounded.plan)
        assert scans["c"] == 3.0  # the caller's injector
        assert scans["t"] == bounds["t"]  # the source, asked next
        assert bounds["c"] != 3.0


class TestUpperBoundEstimator:
    def test_bounds_are_products_of_table_bounds(self, stock_db):
        query = stock_db.parse(SKEWED_SQL, name="bounds")
        source = UpperBoundEstimator(stock_db.catalog)
        single = source.lookup(query, _subset(query, "t"))
        trades_rows = source.selectivity.table_rows("trades")
        bound = scan_upper_bound(stock_db.catalog, "trades", query.filters_for("t"))
        assert single == max(MIN_ROWS, bound if bound is not None else trades_rows)
        joint = source.lookup(query, _subset(query, "c", "t"))
        company = source.lookup(query, _subset(query, "c"))
        assert joint == pytest.approx(single * company)

    def test_never_underestimates_scans(self, stock_db):
        query = stock_db.parse(SKEWED_SQL, name="sound")
        source = UpperBoundEstimator(stock_db.catalog)
        actual = sum(
            1
            for row in stock_db.catalog.table("company").iter_rows()
            if row[1] == "SYM1"
        )
        assert source.lookup(query, _subset(query, "c")) >= actual


class TestFeedbackEstimator:
    def test_prefers_observed_cardinalities(self, stock_db):
        query = stock_db.parse(SKEWED_SQL, name="observed")
        source = FeedbackEstimator(stock_db.feedback)
        subset = _subset(query, "c", "t")
        assert source.lookup(query, subset) is None  # cold: defer
        # A single table it has not seen falls through to the model too.
        assert source.lookup(query, _subset(query, "c")) is None
        stock_db.feedback.record(query, subset, 1234.0)
        assert source.lookup(query, subset) == 1234.0
        assert "feedback" in source.describe()

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
        base = EngineSettings(plan_cache_size=2, estimator="upper-bound")
        resolved = EngineSettings.resolve(base, plan_cache_size=8)
        assert resolved.plan_cache_size == 8  # explicit kwarg wins
        assert resolved.estimator == "upper-bound"  # settings object second
        assert resolved.statistics_target == EngineSettings().statistics_target  # default

    def test_none_overrides_mean_unspecified(self):
        base = EngineSettings(plan_cache_size=3)
        assert EngineSettings.resolve(base, plan_cache_size=None).plan_cache_size == 3

    def test_unknown_setting_names_nearest_field(self):
        with pytest.raises(ConfigError, match="did you mean 'statistics_target'"):
            EngineSettings().replace(statistics_targt=3)
        with pytest.raises(ConfigError, match="unknown engine setting"):
            EngineSettings.resolve(None, plan_cash_size=7)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError, match="statistics_target"):
            EngineSettings(statistics_target=0)
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
        with pytest.raises(ConfigError, match="unknown engine setting 'sample_rows'"):
            connect(stock_db, sample_rows=50)
        with pytest.raises(ConfigError, match="unknown estimator 'sampling'"):
            connect(stock_db, estimator="sampling")

    def test_replace_returns_validated_copy(self):
        base = EngineSettings()
        derived = base.replace(estimator="feedback", plan_cache_size=6)
        assert (derived.estimator, derived.plan_cache_size) == ("feedback", 6)
        assert base.estimator == "stats"  # original untouched

    def test_connect_applies_overrides_to_existing_database(self, stock_db):
        conn = connect(stock_db, estimator="upper-bound")
        assert stock_db.settings.estimator == "upper-bound"
        assert isinstance(stock_db.optimizer.source, UpperBoundEstimator)
        conn.close()

    def test_connect_applies_cost_and_planner_to_existing_database(self, stock_db):
        """Every settings-derived part follows ``connect(db, cost=...)``:
        the plan costs what a fresh database with those settings charges."""
        scaled = CostParameters(
            seq_page_cost=10.0,
            random_page_cost=20.0,
            cpu_tuple_cost=0.1,
            cpu_index_tuple_cost=0.05,
            cpu_operator_cost=0.025,
        )
        settings = EngineSettings(cost=scaled)
        fresh = Database(settings)
        for name in ("company", "trades"):
            fresh.create_table(stock_db.catalog.table(name).schema)
            fresh.load_rows(name, stock_db.catalog.table(name).iter_rows())
        fresh.finalize_load()
        query = "SELECT count(t.id) AS n FROM company AS c, trades AS t WHERE c.id = t.company_id"
        default_cost = stock_db.plan(stock_db.parse(query)).estimated_cost
        conn = connect(stock_db, cost=scaled)
        try:
            assert stock_db.cost_model.params is scaled
            assert stock_db.executor.cost_model is stock_db.cost_model
            planned = stock_db.plan(stock_db.parse(query)).estimated_cost
            assert planned == fresh.plan(fresh.parse(query)).estimated_cost
            assert planned != default_cost
        finally:
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
