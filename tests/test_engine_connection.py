"""Unit tests for the Connection/Cursor/PreparedStatement serving API."""

import pytest

import repro
from repro.core import ReoptimizationPolicy
from repro.engine import connect
from repro.errors import InterfaceError, ParameterError

SKEWED_SQL = (
    "SELECT count(t.id) AS n FROM company AS c, trades AS t "
    "WHERE c.symbol = 'SYM1' AND c.id = t.company_id"
)
SIMPLE_SQL = "SELECT c.id, c.symbol FROM company AS c WHERE c.sector = 'tech'"


@pytest.fixture
def conn(stock_db):
    return connect(stock_db, reoptimize=False)


class TestModuleSurface:
    def test_dbapi_module_attributes(self):
        assert repro.apilevel == "2.0"
        assert repro.paramstyle == "qmark"
        assert repro.threadsafety == 1

    def test_connect_creates_fresh_database(self):
        connection = repro.connect()
        assert len(connection.database.catalog) == 0


class TestCursor:
    def test_execute_and_fetch_protocol(self, conn, stock_db):
        cursor = conn.execute(SIMPLE_SQL)
        expected = stock_db.run(SIMPLE_SQL).rows
        assert cursor.rowcount == len(expected)
        assert [d[0] for d in cursor.description] == ["c.id", "c.symbol"]
        first = cursor.fetchone()
        assert first == expected[0]
        chunk = cursor.fetchmany(2)
        assert chunk == expected[1:3]
        rest = cursor.fetchall()
        assert rest == expected[3:]
        assert cursor.fetchone() is None

    def test_cursor_iteration(self, conn, stock_db):
        rows = list(conn.execute(SIMPLE_SQL))
        assert rows == stock_db.run(SIMPLE_SQL).rows

    def test_output_name_in_description(self, conn):
        cursor = conn.execute("SELECT count(c.id) AS n FROM company AS c")
        assert [d[0] for d in cursor.description] == ["n"]

    def test_execute_with_params(self, conn, stock_db):
        cursor = conn.cursor().execute(
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = ?",
            ("tech",),
        )
        literal = stock_db.run(
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = 'tech'"
        )
        assert cursor.fetchall() == literal.rows

    def test_executemany_keeps_last_result(self, conn):
        cursor = conn.cursor().executemany(
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = ?",
            [("tech",), ("energy",)],
        )
        energy = conn.execute(
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = 'energy'"
        )
        assert cursor.fetchall() == energy.fetchall()

    def test_fetch_before_execute_rejected(self, conn):
        cursor = conn.cursor()
        with pytest.raises(InterfaceError):
            cursor.fetchall()

    def test_closed_cursor_rejected(self, conn):
        cursor = conn.execute(SIMPLE_SQL)
        cursor.close()
        with pytest.raises(InterfaceError):
            cursor.fetchone()

    def test_rowcount_before_execute(self, conn):
        assert conn.cursor().rowcount == -1


class TestConnectionLifecycle:
    def test_closed_connection_rejects_statements(self, stock_db):
        connection = connect(stock_db, reoptimize=False)
        connection.close()
        assert connection.closed
        with pytest.raises(InterfaceError):
            connection.execute(SIMPLE_SQL)
        with pytest.raises(InterfaceError):
            connection.cursor()

    def test_context_manager_closes(self, stock_db):
        with connect(stock_db, reoptimize=False) as connection:
            connection.execute(SIMPLE_SQL)
        assert connection.closed

    def test_close_invalidates_outstanding_cursors(self, stock_db):
        connection = connect(stock_db, reoptimize=False)
        cursor = connection.execute(SIMPLE_SQL)
        other = connection.cursor()
        connection.close()
        assert cursor.closed and other.closed
        with pytest.raises(InterfaceError):
            cursor.fetchone()
        with pytest.raises(InterfaceError):
            cursor.fetchall()
        with pytest.raises(InterfaceError):
            other.execute(SIMPLE_SQL)
        assert cursor.description is None

    def test_close_invalidates_outstanding_prepared_statements(self, stock_db):
        connection = connect(stock_db, reoptimize=False)
        statement = connection.prepare(
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = ?"
        )
        statement.execute(("tech",))
        connection.close()
        assert statement.closed
        with pytest.raises(InterfaceError):
            statement.execute(("tech",))

    def test_close_ordering_is_idempotent_and_safe(self, stock_db):
        connection = connect(stock_db, reoptimize=False)
        cursor = connection.execute(SIMPLE_SQL)
        statement = connection.prepare(
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = ?"
        )
        # Closing a resource before the connection, then the connection,
        # then the resource again must never raise.
        cursor.close()
        connection.close()
        connection.close()
        cursor.close()
        statement.close()
        with pytest.raises(InterfaceError):
            statement.execute(("tech",))

    def test_explicitly_closed_statement_rejects_before_connection_close(
        self, conn
    ):
        statement = conn.prepare(
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = ?"
        )
        statement.close()
        with pytest.raises(InterfaceError):
            statement.execute(("tech",))
        # The connection itself is still open and serving.
        assert conn.execute(SIMPLE_SQL).rowcount >= 0

    def test_commit_rollback_are_noops(self, conn):
        conn.commit()
        conn.rollback()

    def test_metrics_accumulate(self, conn):
        conn.execute(SIMPLE_SQL)
        conn.execute(SKEWED_SQL)
        assert conn.metrics.statements == 2
        assert conn.metrics.planning_seconds > 0
        assert conn.metrics.execution_seconds > 0


class TestPreparedStatements:
    def test_prepared_matches_literal(self, conn, stock_db):
        statement = conn.prepare(
            "SELECT count(t.id) AS n FROM company AS c, trades AS t "
            "WHERE c.symbol = ? AND c.id = t.company_id"
        )
        assert statement.param_count == 1
        literal = stock_db.run(SKEWED_SQL)
        assert statement.execute(("SYM1",)).fetchall() == literal.rows

    def test_second_execution_hits_plan_cache(self, conn):
        statement = conn.prepare(
            "SELECT count(t.id) AS n FROM company AS c, trades AS t "
            "WHERE c.symbol = ? AND c.id = t.company_id"
        )
        cold = statement.execute(("SYM1",))
        warm = statement.execute(("SYM1",))
        assert not cold.context.plan_cached
        assert warm.context.plan_cached
        assert warm.context.planning_seconds == 0.0
        assert conn.cache_stats.hits == 1
        assert warm.fetchall() == cold.fetchall()

    def test_distinct_params_are_distinct_cache_entries(self, conn):
        statement = conn.prepare(
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = ?"
        )
        statement.execute(("tech",))
        other = statement.execute(("energy",))
        assert not other.context.plan_cached
        again = statement.execute(("energy",))
        assert again.context.plan_cached

    def test_prepared_and_adhoc_share_cache(self, conn):
        statement = conn.prepare(
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = ?"
        )
        statement.execute(("tech",))
        adhoc = conn.execute(
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = 'tech'"
        )
        assert adhoc.context.plan_cached

    def test_wrong_arity_rejected(self, conn):
        statement = conn.prepare(
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = ?"
        )
        with pytest.raises(ParameterError):
            statement.execute(())

    def test_analyze_on_connection_invalidates_cache(self, conn):
        statement = conn.prepare(
            "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = ?"
        )
        statement.execute(("tech",))
        statement.execute(("tech",))
        assert conn.cache_stats.hits == 1
        # A new row changes the statistics, so ANALYZE moves the epoch.
        conn.database.load_rows("company", [(1000, "SYM1000", "retail")])
        conn.analyze(["company"])
        refreshed = statement.execute(("tech",))
        assert not refreshed.context.plan_cached


class TestReoptimizingConnection:
    def test_reoptimization_via_cursor(self, stock_db):
        connection = connect(
            stock_db, policy=ReoptimizationPolicy(threshold=4), plan_cache_size=0
        )
        cursor = connection.execute(SKEWED_SQL)
        context = cursor.context
        assert context.reoptimized
        assert cursor.fetchall() == stock_db.run(SKEWED_SQL).rows
        assert connection.metrics.reoptimized_statements == 1

    def test_capture_explain(self, stock_db):
        connection = connect(stock_db, reoptimize=False, capture_explain=True)
        cursor = connection.execute(SIMPLE_SQL)
        assert cursor.explain_text is not None
        assert "actual_rows" in cursor.explain_text


GROUPED_SQL = (
    "SELECT c.sector, count(*) AS n, sum(t.shares) AS volume "
    "FROM company AS c, trades AS t WHERE c.id = t.company_id "
    "GROUP BY c.sector ORDER BY volume DESC LIMIT 2"
)


class TestGroupedQueriesThroughPipeline:
    """Grouped-aggregate statements flow through cache/EXPLAIN like any other."""

    def test_plan_cache_hit_on_repeated_group_by(self, conn):
        first = conn.execute(GROUPED_SQL)
        second = conn.execute(GROUPED_SQL)
        assert not first.context.plan_cached
        assert second.context.plan_cached
        assert conn.cache_stats.hits == 1
        assert second.fetchall() == first.fetchall()

    def test_explain_shows_shaping_nodes(self, stock_db):
        connection = connect(stock_db, reoptimize=False, capture_explain=True)
        text = connection.execute(GROUPED_SQL).explain_text
        assert "HashAggregate (keys: c.sector)" in text
        assert "Sort (volume DESC)" in text
        assert "Limit 2" in text

    def test_description_types_for_new_outputs(self, conn):
        from repro.catalog import ColumnType

        cursor = conn.execute(
            "SELECT c.sector, count(*) AS n, sum(t.shares) AS total, "
            "avg(t.shares) AS mean FROM company AS c, trades AS t "
            "WHERE c.id = t.company_id GROUP BY c.sector"
        )
        description = cursor.description
        assert [d[0] for d in description] == ["c.sector", "n", "total", "mean"]
        assert [d[1] for d in description] == [
            ColumnType.TEXT,  # group key keeps its column type
            ColumnType.INT,  # COUNT is always integer
            ColumnType.INT,  # SUM over an int column stays int
            ColumnType.FLOAT,  # AVG is always float
        ]

    def test_count_star_description_name(self, conn):
        cursor = conn.execute("SELECT count(*) FROM company AS c")
        assert cursor.description[0][0] == "count(*)"
        assert cursor.fetchall() == [(150,)]

    def test_reoptimized_grouped_query_matches_plain_run(self, stock_db):
        connection = connect(
            stock_db,
            policy=ReoptimizationPolicy(threshold=2, min_query_seconds=0.0),
            plan_cache_size=0,
        )
        skewed = (
            "SELECT t.venue, count(*) AS n FROM company AS c, trades AS t "
            "WHERE c.symbol = 'SYM1' AND c.id = t.company_id "
            "GROUP BY t.venue ORDER BY n DESC"
        )
        cursor = connection.execute(skewed)
        baseline = connect(stock_db, reoptimize=False).execute(skewed)
        assert cursor.fetchall() == baseline.fetchall()

    def test_prepared_grouped_statement_with_params(self, conn):
        statement = conn.prepare(
            "SELECT t.venue, sum(t.shares) AS s FROM trades AS t "
            "WHERE t.shares > ? GROUP BY t.venue ORDER BY s DESC LIMIT 1"
        )
        top = statement.execute((0,)).fetchall()
        assert len(top) == 1
        again = statement.execute((0,)).fetchall()
        assert again == top
