"""Unit tests for the binder."""

import pytest

from repro.errors import BindError, ParseError, SQLError
from repro.optimizer import JoinGraph
from repro.sql import parse_select

SQL = """
SELECT min(c.symbol) AS sym, count(t.id) AS n
FROM company AS c, trades AS t
WHERE c.symbol = 'SYM1'
  AND t.shares > 100
  AND c.id = t.company_id;
"""


class TestBinder:
    def test_bind_splits_filters_and_joins(self, stock_db):
        bound = stock_db.binder.bind(parse_select(SQL, name="demo"))
        assert bound.name == "demo"
        assert bound.aliases == ["c", "t"]
        assert bound.table_for("c") == "company"
        assert len(bound.filters_for("c")) == 1
        assert len(bound.filters_for("t")) == 1
        assert len(bound.joins) == 1
        join = bound.joins[0]
        assert join.aliases() == ("c", "t")
        assert join.column_for("c") == "id"
        assert join.column_for("t") == "company_id"
        assert join.other("c") == ("t", "company_id")

    def test_unqualified_column_resolution(self, stock_db):
        bound = stock_db.parse("SELECT symbol FROM company WHERE symbol = 'SYM1'")
        assert bound.select_items[0].column.alias == "company"

    def test_ambiguous_column_rejected(self, stock_db):
        with pytest.raises(BindError):
            stock_db.parse("SELECT id FROM company, trades WHERE company.id = trades.company_id")

    def test_unknown_table(self, stock_db):
        with pytest.raises(BindError):
            stock_db.parse("SELECT x.id FROM missing_table AS x")

    def test_unknown_column(self, stock_db):
        with pytest.raises(BindError):
            stock_db.parse("SELECT c.nope FROM company AS c")

    def test_unknown_alias_rejected(self, stock_db):
        with pytest.raises(BindError, match="unknown alias 'x'"):
            stock_db.parse("SELECT x.id FROM company AS c")

    def test_duplicate_alias_rejected(self, stock_db):
        with pytest.raises(BindError):
            stock_db.parse("SELECT c.id FROM company AS c, trades AS c")

    def test_single_table_column_comparison_is_a_filter(self, stock_db):
        # Same-alias column-to-column comparisons are ordinary single-table
        # filters in the unified expression tree, not join predicates.
        bound = stock_db.parse(
            "SELECT c.id FROM company AS c, trades AS t "
            "WHERE c.id = c.id AND c.id = t.company_id"
        )
        assert len(bound.joins) == 1
        assert len(bound.filters_for("c")) == 1

    def test_multi_table_or_predicate_becomes_residual(self, stock_db):
        # A cross-table OR is a residual join filter: it cannot be pushed to
        # either scan, so it is applied at the join covering both tables.
        bound = stock_db.parse(
            "SELECT c.id FROM company AS c, trades AS t "
            "WHERE (c.symbol = 'A' OR t.venue = 'NYSE') AND c.id = t.company_id"
        )
        assert len(bound.joins) == 1
        assert len(bound.residuals) == 1
        assert set(bound.residuals[0].referenced_aliases()) == {"c", "t"}

    def test_bound_query_to_sql_roundtrip(self, stock_db):
        bound = stock_db.parse(SQL, name="demo")
        rebound = stock_db.parse(bound.to_sql(), name="demo2")
        assert rebound.aliases == bound.aliases
        assert len(rebound.joins) == len(bound.joins)
        assert len(rebound.filters_for("c")) == len(bound.filters_for("c"))

    def test_joins_between(self, stock_db):
        graph = JoinGraph(stock_db.parse(SQL))
        c, t = graph.bits["c"], graph.bits["t"]
        assert len(graph.joins_between(c, t)) == 1
        assert graph.joins_between(c, c) == ()

    def test_num_tables(self, stock_db):
        assert stock_db.parse(SQL).num_tables() == 2


class TestGroupingRules:
    def test_group_keys_resolved_and_validated(self, stock_db):
        bound = stock_db.parse(
            "SELECT sector, count(*) AS n FROM company GROUP BY sector"
        )
        assert [str(c) for c in bound.group_by] == ["company.sector"]
        assert bound.select_items[0].column.alias == "company"

    def test_bare_column_not_in_group_by_rejected(self, stock_db):
        with pytest.raises(BindError, match="must appear in the GROUP BY"):
            stock_db.parse(
                "SELECT c.symbol, count(*) AS n FROM company AS c GROUP BY c.sector"
            )

    def test_star_with_group_by_rejected(self, stock_db):
        with pytest.raises(BindError, match="SELECT \\* cannot be combined"):
            stock_db.parse("SELECT * FROM company GROUP BY sector")

    def test_unknown_group_key_rejected(self, stock_db):
        with pytest.raises(BindError):
            stock_db.parse("SELECT count(*) AS n FROM company GROUP BY nope")

    def test_group_key_not_projected_is_allowed(self, stock_db):
        bound = stock_db.parse("SELECT count(*) AS n FROM company GROUP BY sector")
        assert len(bound.group_by) == 1

    @pytest.mark.parametrize("func", ["sum", "avg"])
    def test_sum_avg_over_text_column_rejected(self, stock_db, func):
        # Without this check the engines would diverge (string concatenation
        # vs TypeError); numeric columns remain fine.
        with pytest.raises(BindError, match="not defined for text column"):
            stock_db.parse(f"SELECT {func}(c.symbol) AS s FROM company AS c")
        with pytest.raises(BindError, match="not defined for text column"):
            stock_db.parse(
                f"SELECT c.sector, {func}(c.symbol) AS s FROM company AS c "
                "GROUP BY c.sector"
            )
        stock_db.parse(f"SELECT {func}(t.shares) AS s FROM trades AS t")


class TestOrderByResolution:
    def test_output_name_key(self, stock_db):
        bound = stock_db.parse(
            "SELECT sector, count(*) AS n FROM company GROUP BY sector ORDER BY n DESC"
        )
        key = bound.order_by[0]
        assert (key.alias, key.column, key.ascending) == ("", "n", False)

    def test_group_key_column_key(self, stock_db):
        bound = stock_db.parse(
            "SELECT c.sector, count(*) AS n FROM company c GROUP BY c.sector "
            "ORDER BY c.sector"
        )
        assert bound.order_by[0].column == "col0"

    def test_aggregate_query_cannot_order_by_non_output(self, stock_db):
        with pytest.raises(BindError, match="must appear in the select list"):
            stock_db.parse(
                "SELECT c.sector, count(*) AS n FROM company c GROUP BY c.sector "
                "ORDER BY c.symbol"
            )

    def test_duplicate_output_name_in_order_by_is_ambiguous(self, stock_db):
        # PostgreSQL's rule: a bare ORDER BY name matching two select items
        # errors instead of silently picking one of them.
        with pytest.raises(BindError, match="ORDER BY 'n' is ambiguous"):
            stock_db.parse(
                "SELECT c.symbol AS n, count(*) AS n FROM company AS c "
                "GROUP BY c.symbol ORDER BY n DESC"
            )

    def test_duplicated_output_name_falls_back_to_base_sort_when_plain(self, stock_db):
        # Output names are unusable when duplicated, but a plain query can
        # still sort below the projection on the matched base column — the
        # query stays valid (PostgreSQL accepts it) and sorts correctly.
        bound = stock_db.parse(
            "SELECT c.symbol AS x, c.id AS x FROM company AS c ORDER BY c.symbol"
        )
        assert (bound.order_by[0].alias, bound.order_by[0].column) == ("c", "symbol")

    def test_duplicated_output_name_rejected_when_no_fallback(self, stock_db):
        # Grouped queries address outputs by name at runtime; with the name
        # duplicated there is no safe interpretation, so binding must fail.
        with pytest.raises(BindError, match="names more than one select item"):
            stock_db.parse(
                "SELECT c.symbol AS x, c.sector AS x, count(*) AS n "
                "FROM company AS c GROUP BY c.symbol, c.sector "
                "ORDER BY c.symbol"
            )

    def test_typo_in_aggregate_order_by_reports_missing_column(self, stock_db):
        # A nonexistent column must say so, not "add it to the select list".
        with pytest.raises(BindError, match="has no column 'nosuch'"):
            stock_db.parse(
                "SELECT count(c.id) AS n FROM company AS c ORDER BY c.nosuch"
            )
        with pytest.raises(BindError, match="has no column 'nosuch'"):
            stock_db.parse(
                "SELECT DISTINCT c.sector FROM company AS c ORDER BY c.nosuch"
            )

    def test_plain_query_can_order_by_unprojected_column(self, stock_db):
        bound = stock_db.parse("SELECT c.id FROM company c ORDER BY c.symbol DESC")
        key = bound.order_by[0]
        assert (key.alias, key.column, key.ascending) == ("c", "symbol", False)

    def test_distinct_requires_sort_keys_in_select_list(self, stock_db):
        with pytest.raises(BindError, match="SELECT DISTINCT"):
            stock_db.parse("SELECT DISTINCT c.id FROM company c ORDER BY c.symbol")

    def test_output_alias_plus_unprojected_key_binds_to_base_columns(self, stock_db):
        # The second key forces the sort below the projection; the alias key
        # must keep pointing at its select item's base column, not re-resolve
        # the bare name against the tables (where 'sym' does not exist).
        bound = stock_db.parse(
            "SELECT c.symbol AS sym FROM company c ORDER BY sym, c.id"
        )
        assert [(k.alias, k.column) for k in bound.order_by] == [
            ("c", "symbol"),
            ("c", "id"),
        ]

    def test_output_alias_shadowing_base_column_wins(self, stock_db):
        # 'sector' is both the AS alias of c.symbol and a real company
        # column; PostgreSQL's rule says the output alias wins.
        bound = stock_db.parse(
            "SELECT c.symbol AS sector FROM company c ORDER BY sector, c.id"
        )
        assert (bound.order_by[0].alias, bound.order_by[0].column) == ("c", "symbol")

    def test_alias_colliding_with_positional_name_sorts_on_base_column(self, stock_db):
        # 'col1' as an AS alias collides with item 1's synthetic positional
        # name, so the output name cannot be addressed at runtime; the plain
        # query falls back to sorting below the projection on the aliased
        # item's base column (c.id — the AS name wins the match).
        bound = stock_db.parse(
            "SELECT c.id AS col1, c.symbol FROM company AS c ORDER BY col1"
        )
        assert (bound.order_by[0].alias, bound.order_by[0].column) == ("c", "id")

    def test_real_column_named_colN_beats_positional_fallback(self):
        from repro.catalog import ColumnType, make_schema
        from repro.engine import Database

        db = Database()
        db.create_table(
            make_schema(
                "t", [("x", ColumnType.INT), ("col0", ColumnType.INT)]
            )
        )
        bound = db.parse("SELECT t.x, t.col0 FROM t AS t ORDER BY col0")
        # 'col0' is a real column: it must bind to select item 1 (output
        # 'col1'), not be captured by item 0's synthetic positional name.
        assert bound.order_by[0].column == "col1"
        # Without a real column of that name the positional fallback applies.
        bound = db.parse("SELECT t.x, t.col0 FROM t AS t ORDER BY col1")
        assert bound.order_by[0].column == "col1"

    def test_star_query_sorts_on_base_columns(self, stock_db):
        bound = stock_db.parse("SELECT * FROM company ORDER BY symbol")
        key = bound.order_by[0]
        assert (key.alias, key.column) == ("company", "symbol")

    def test_shaped_bound_to_sql_roundtrip(self, stock_db):
        bound = stock_db.parse(
            "SELECT DISTINCT c.sector FROM company AS c "
            "WHERE c.id > 3 ORDER BY c.sector DESC LIMIT 4 OFFSET 2"
        )
        rebound = stock_db.parse(bound.to_sql())
        assert rebound.to_sql() == bound.to_sql()
        assert rebound.distinct and rebound.limit == 4 and rebound.offset == 2


#: Every shape rule that the planner (or the binder, for a parser rule) once
#: repeated for queries that skipped the binder, the SQL that breaks it, and
#: where the rule now lives: the parser (``ParseError``) or the binder
#: (``BindError``), with the message it gives.
REJECTED_SHAPES = [
    (
        "sum over text",
        "SELECT sum(c.symbol) AS s FROM company AS c",
        BindError,
        r"SUM\(c\.symbol\) is not defined for text column company\.symbol",
    ),
    (
        "avg over text",
        "SELECT avg(c.symbol) AS s FROM company AS c",
        BindError,
        r"AVG\(c\.symbol\) is not defined for text column company\.symbol",
    ),
    (
        "sum of star",
        "SELECT sum(*) AS s FROM company AS c",
        ParseError,
        r"'\*' is only allowed inside COUNT, not SUM",
    ),
    (
        "grouped, ordered by an unprojected base column",
        "SELECT c.sector, count(c.id) AS n FROM company AS c GROUP BY c.sector "
        "ORDER BY c.id",
        BindError,
        r"ORDER BY column c\.id must appear in the select list",
    ),
    (
        "distinct, ordered by an unprojected base column",
        "SELECT DISTINCT c.sector FROM company AS c ORDER BY c.id",
        BindError,
        r"for SELECT DISTINCT, ORDER BY column c\.id must appear in the select list",
    ),
    (
        "aggregate, ordered by a base column",
        "SELECT sum(c.id) AS s FROM company AS c ORDER BY c.id",
        BindError,
        r"ORDER BY column c\.id must appear in the select list",
    ),
    (
        "offset without limit",
        "SELECT c.id FROM company AS c OFFSET 5",
        ParseError,
        "OFFSET is only valid directly after LIMIT",
    ),
    (
        "bare column beside an ungrouped aggregate",
        "SELECT c.symbol, count(c.id) AS n FROM company AS c",
        ParseError,
        r"bare column c\.symbol cannot be mixed with aggregates without GROUP BY",
    ),
]

#: Shapes SQL cannot express — output and base ORDER BY keys mixed, output
#: keys under SELECT * — and the keys the binder emits instead, as
#: ``(alias, column)``; alias "" is an output column.
EMITTED_KEYS = [
    (
        "output key beside an unprojected column: all base keys",
        "SELECT c.symbol AS x FROM company AS c ORDER BY x, c.id",
        [("c", "symbol"), ("c", "id")],
    ),
    (
        "output key beside a projected column: all output keys",
        "SELECT c.symbol AS x FROM company AS c ORDER BY x, c.symbol",
        [("", "x"), ("", "x")],
    ),
    (
        "select star: base keys",
        "SELECT * FROM company AS c ORDER BY id, c.sector",
        [("c", "id"), ("c", "sector")],
    ),
    (
        "select distinct star: base keys",
        "SELECT DISTINCT * FROM company AS c ORDER BY sector",
        [("c", "sector")],
    ),
]


class TestWhereShapeRulesLive:
    """Each shape rule is checked once, at parse or bind: a shape SQL can
    express is rejected there, and one it cannot is never emitted."""

    @pytest.mark.parametrize(
        "sql, error, message",
        [case[1:] for case in REJECTED_SHAPES],
        ids=[case[0] for case in REJECTED_SHAPES],
    )
    def test_rejected_at_parse_or_bind(self, shared_stock_db, sql, error, message):
        with pytest.raises(SQLError, match=message) as raised:
            shared_stock_db.parse(sql)
        assert raised.type is error

    @pytest.mark.parametrize(
        "sql, keys",
        [case[1:] for case in EMITTED_KEYS],
        ids=[case[0] for case in EMITTED_KEYS],
    )
    def test_binder_emits_one_kind_of_sort_key(self, shared_stock_db, sql, keys):
        bound = shared_stock_db.parse(sql)
        assert [(key.alias, key.column) for key in bound.order_by] == keys
        shared_stock_db.run(bound)
