"""Unit tests for ``?`` parameter lowering and substitution."""

import pytest

from repro.errors import ParameterError
from repro.sql import bind_parameters, parse_select
from repro.sql.ast import (
    Between,
    Comparison,
    InList,
    Like,
    Param,
    Parameter,
)
from repro.sql.lexer import TokenType, tokenize


def _param(index: int) -> Param:
    return Param(Parameter(index))


class TestLexerAndParser:
    def test_question_mark_token(self):
        tokens = tokenize("SELECT c.id FROM company AS c WHERE c.id = ?")
        assert any(t.type is TokenType.PARAMETER for t in tokens)

    def test_parameters_numbered_in_parse_order(self):
        query = parse_select(
            "SELECT t.id FROM trades AS t "
            "WHERE t.shares BETWEEN ? AND ? AND t.venue IN (?, ?) AND t.id = ?"
        )
        assert query.param_count == 5
        between = query.predicates[0]
        assert isinstance(between, Between)
        assert between.low == _param(0)
        assert between.high == _param(1)
        in_pred = query.predicates[1]
        assert isinstance(in_pred, InList)
        assert in_pred.items == (_param(2), _param(3))
        comparison = query.predicates[2]
        assert isinstance(comparison, Comparison)
        assert comparison.right == _param(4)

    def test_parameter_inside_arithmetic(self):
        query = parse_select(
            "SELECT t.id FROM trades AS t WHERE t.shares * ? > ? + 1"
        )
        assert query.param_count == 2

    def test_like_pattern_parameter(self):
        query = parse_select("SELECT c.id FROM company AS c WHERE c.symbol LIKE ?")
        like = query.predicates[0]
        assert isinstance(like, Like)
        assert like.pattern == _param(0)

    def test_parameter_renders_as_question_mark(self):
        query = parse_select("SELECT c.id FROM company AS c WHERE c.id = ?")
        assert "= ?" in query.to_sql()

    def test_literal_sql_has_zero_params(self):
        query = parse_select("SELECT c.id FROM company AS c WHERE c.id = 3")
        assert query.param_count == 0


class TestBindParameters:
    @pytest.fixture
    def template(self, stock_db):
        sql = (
            "SELECT count(t.id) AS n FROM company AS c, trades AS t "
            "WHERE c.symbol = ? AND t.shares BETWEEN ? AND ? "
            "AND c.id = t.company_id"
        )
        return stock_db, stock_db.binder.bind(parse_select(sql))

    def test_binder_carries_param_count(self, template):
        _, bound = template
        assert bound.param_count == 3

    def test_substitution_matches_literal_query(self, template):
        db, bound = template
        concrete = bind_parameters(bound, ("SYM1", 10, 5000))
        assert concrete.param_count == 0
        literal = db.run(
            "SELECT count(t.id) AS n FROM company AS c, trades AS t "
            "WHERE c.symbol = 'SYM1' AND t.shares BETWEEN 10 AND 5000 "
            "AND c.id = t.company_id"
        )
        assert db.run(concrete).rows == literal.rows

    def test_template_not_mutated(self, template):
        _, bound = template
        bind_parameters(bound, ("SYM1", 10, 5000))
        assert bound.param_count == 3
        filters = [p for preds in bound.filters.values() for p in preds]
        assert any(
            isinstance(node, Param)
            for predicate in filters
            for node in predicate.walk()
        )

    def test_wrong_arity_rejected(self, template):
        _, bound = template
        with pytest.raises(ParameterError):
            bind_parameters(bound, ("SYM1",))
        with pytest.raises(ParameterError):
            bind_parameters(bound, ("SYM1", 1, 2, 3))

    def test_non_string_like_pattern_rejected(self, stock_db):
        bound = stock_db.binder.bind(
            parse_select("SELECT c.id FROM company AS c WHERE c.symbol LIKE ?")
        )
        with pytest.raises(ParameterError):
            bind_parameters(bound, (7,))
        concrete = bind_parameters(bound, ("SYM1%",))
        assert concrete.param_count == 0

    def test_arithmetic_parameter_substitution(self, stock_db):
        bound = stock_db.binder.bind(
            parse_select(
                "SELECT count(*) AS n FROM trades AS t WHERE t.shares % ? = 0"
            )
        )
        concrete = bind_parameters(bound, (2,))
        literal = stock_db.run(
            "SELECT count(*) AS n FROM trades AS t WHERE t.shares % 2 = 0"
        )
        assert stock_db.run(concrete).rows == literal.rows


class TestParameterTypes:
    def test_select_list_parameter_rejected_at_bind(self, stock_db):
        with pytest.raises(ParameterError, match="only in WHERE"):
            stock_db.parse("SELECT t.shares / ? AS q FROM trades AS t WHERE t.id = 7")

    @pytest.mark.parametrize(
        "where",
        [
            "t.shares > ?",
            "t.shares / ? > 2500",
            "t.shares BETWEEN ? AND 5000",
            "? <= t.shares",
            "-? < t.shares",
            # A ? that a CASE branch yields meets what the CASE meets.
            "t.shares > CASE WHEN t.id = 1 THEN ? ELSE 2 END",
            "t.shares + CASE WHEN t.id = 1 THEN 1 ELSE ? END > 2500",
            "t.shares BETWEEN CASE WHEN t.id = 1 THEN ? ELSE 0 END AND 5000",
            "CASE WHEN t.id = 1 THEN CASE WHEN t.id = 2 THEN ? END ELSE 2 END <= t.shares",
        ],
    )
    def test_value_that_cannot_meet_its_operand_rejected_at_bind(self, stock_db, where):
        bound = stock_db.parse(f"SELECT count(t.id) AS n FROM trades AS t WHERE {where}")
        with pytest.raises(ParameterError, match="cannot meet its operand"):
            bind_parameters(bound, ("1",))
        for value in (2, 2.5, True, None):
            assert bind_parameters(bound, (value,)).param_count == 0

    def test_text_column_orders_only_against_strings(self, stock_db):
        bound = stock_db.parse("SELECT c.id FROM company AS c WHERE c.symbol < ?")
        with pytest.raises(ParameterError):
            bind_parameters(bound, (1,))
        assert bind_parameters(bound, ("SYM5",)).param_count == 0

    def test_case_branch_ordered_against_text_takes_strings(self, stock_db):
        bound = stock_db.parse(
            "SELECT c.id FROM company AS c "
            "WHERE c.symbol < CASE WHEN c.id = 1 THEN 'SYM5' ELSE ? END"
        )
        with pytest.raises(ParameterError, match="cannot meet its operand"):
            bind_parameters(bound, (1,))
        assert bind_parameters(bound, ("SYM5",)).param_count == 0

    def test_case_branch_mismatch_is_a_parameter_error_when_executed(self, stock_db):
        from repro.engine import connect

        cursor = connect(stock_db).cursor()
        sql = (
            "SELECT count(t.id) AS n FROM trades AS t "
            "WHERE t.shares > CASE WHEN t.id = 1 THEN ? ELSE 2 END"
        )
        with pytest.raises(ParameterError):
            cursor.execute(sql, ("a",))
        cursor.execute(sql, (4000,))
        assert cursor.fetchall() == stock_db.run(sql.replace("?", "4000")).rows

    @pytest.mark.parametrize(
        "where, same_as",
        [("t.id = ?", "t.id < 0"), ("t.id <> ?", "t.id >= 0"), ("t.id IN (?, 2)", "t.id = 2")],
    )
    def test_equality_takes_any_value_and_a_mismatch_matches_nothing(
        self, stock_db, where, same_as
    ):
        sql = "SELECT count(t.id) AS n FROM trades AS t WHERE {}"
        bound = stock_db.parse(sql.format(where))
        expected = stock_db.run(sql.format(same_as)).rows
        assert stock_db.run(bind_parameters(bound, ("1",))).rows == expected


class TestPlaceholderRoundTrip:
    """The ``?`` form of a statement, bound to its literals, returns the
    literal statement's rows."""

    def test_roundtrip_through_sql_text(self, stock_db):
        sql = (
            "SELECT count(t.id) AS n FROM company AS c, trades AS t "
            "WHERE c.symbol = {} AND t.venue IN ({}, {}) "
            "AND t.shares BETWEEN {} AND {} AND c.id = t.company_id"
        )
        values = ("SYM1", "NYSE", "NASDAQ", 1, 5000)
        literal = stock_db.binder.bind(
            parse_select(sql.format("'SYM1'", "'NYSE'", "'NASDAQ'", 1, 5000))
        )
        template = stock_db.binder.bind(parse_select(sql.format(*"?" * 5)))
        assert template.param_count == len(values)
        concrete = bind_parameters(template, values)
        assert stock_db.run(concrete).rows == stock_db.run(literal).rows

    def test_roundtrip_with_expression_predicates(self, stock_db):
        sql = (
            "SELECT count(*) AS n FROM company AS c, trades AS t "
            "WHERE (c.symbol = {} OR t.shares + {} > {}) "
            "AND c.id = t.company_id"
        )
        values = ("SYM1", 5, 100)
        literal = stock_db.binder.bind(parse_select(sql.format("'SYM1'", 5, 100)))
        template = stock_db.binder.bind(parse_select(sql.format(*"?" * 3)))
        assert template.param_count == len(values)
        concrete = bind_parameters(template, values)
        assert stock_db.run(concrete).rows == stock_db.run(literal).rows
