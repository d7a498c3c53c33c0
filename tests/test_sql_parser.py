"""Unit tests for the SQL parser (unified expression tree)."""

import pytest

from repro.errors import ParseError
from repro.sql import (
    AggregateFunc,
    ArithOp,
    Arithmetic,
    Between,
    BoolConnective,
    BoolExpr,
    Case,
    Column,
    Comparison,
    ComparisonOp,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    parse_expression,
    parse_select,
)

JOB_LIKE = """
SELECT min(k.keyword) AS movie_keyword,
       min(n.name) AS actor_name,
       min(t.title) AS hero_movie
FROM cast_info AS ci,
     keyword AS k,
     movie_keyword AS mk,
     name AS n,
     title AS t
WHERE k.keyword IN ('superhero', 'sequel', 'second-part')
  AND n.name LIKE '%Downey%Robert%'
  AND t.production_year > 2000
  AND k.id = mk.keyword_id
  AND t.id = mk.movie_id
  AND t.id = ci.movie_id
  AND ci.person_id = n.id;
"""


def _is_equi_join(predicate) -> bool:
    return (
        isinstance(predicate, Comparison)
        and predicate.op is ComparisonOp.EQ
        and isinstance(predicate.left, Column)
        and isinstance(predicate.right, Column)
        and predicate.left.alias != predicate.right.alias
    )


class TestParseSelect:
    def test_job_like_query(self):
        query = parse_select(JOB_LIKE, name="6d")
        assert query.name == "6d"
        assert [t.alias for t in query.tables] == ["ci", "k", "mk", "n", "t"]
        assert len(query.select_items) == 3
        assert all(item.aggregate is AggregateFunc.MIN for item in query.select_items)
        joins = [p for p in query.predicates if _is_equi_join(p)]
        filters = [p for p in query.predicates if not _is_equi_join(p)]
        assert len(joins) == 4
        assert len(filters) == 3

    def test_filter_types(self):
        query = parse_select(JOB_LIKE)
        filters = [p for p in query.predicates if not _is_equi_join(p)]
        assert isinstance(filters[0], InList)
        assert isinstance(filters[1], Like)
        assert isinstance(filters[2], Comparison)
        assert filters[2].op is ComparisonOp.GT

    def test_select_star(self):
        query = parse_select("SELECT * FROM company")
        assert query.select_items == []
        assert query.tables[0].table == "company"
        assert query.tables[0].alias == "company"

    def test_alias_without_as(self):
        query = parse_select("SELECT c.id FROM company c WHERE c.id = 1")
        assert query.tables[0].alias == "c"

    def test_between(self):
        query = parse_select(
            "SELECT t.id FROM title t WHERE t.production_year BETWEEN 1990 AND 2000"
        )
        predicate = query.predicates[0]
        assert isinstance(predicate, Between)
        assert predicate.low == Literal(1990) and predicate.high == Literal(2000)

    def test_is_null_and_is_not_null(self):
        query = parse_select(
            "SELECT t.id FROM title t WHERE t.kind_id IS NULL AND t.title IS NOT NULL"
        )
        first, second = query.predicates
        assert isinstance(first, IsNull) and not first.negated
        assert isinstance(second, IsNull) and second.negated

    def test_not_like_not_in_not_between(self):
        query = parse_select(
            "SELECT t.id FROM title t WHERE t.title NOT LIKE '%x%' "
            "AND t.kind_id NOT IN (1, 2) AND t.id NOT BETWEEN 3 AND 9"
        )
        first, second, third = query.predicates
        assert isinstance(first, Like) and first.negated
        assert isinstance(second, InList) and second.negated
        assert isinstance(third, Between) and third.negated

    def test_or_predicate_with_parentheses(self):
        query = parse_select(
            "SELECT t.id FROM title t WHERE (t.production_year > 2000 OR t.kind_id = 1)"
        )
        predicate = query.predicates[0]
        assert isinstance(predicate, BoolExpr)
        assert predicate.op is BoolConnective.OR
        assert len(predicate.operands) == 2

    def test_join_predicate_shape(self):
        query = parse_select(
            "SELECT a.id FROM a, b WHERE a.id = b.a_id AND a.x = 3"
        )
        joins = [p for p in query.predicates if _is_equi_join(p)]
        assert len(joins) == 1

    def test_non_equi_column_comparison_parses(self):
        # Non-equi column-to-column predicates are residual join filters now,
        # classified downstream by the binder.
        query = parse_select("SELECT a.id FROM a, b WHERE a.id < b.a_id")
        predicate = query.predicates[0]
        assert isinstance(predicate, Comparison)
        assert predicate.op is ComparisonOp.LT

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_select("SELECT a.id FROM a WHERE a.id = 1 garbage garbage")

    def test_missing_from_rejected(self):
        with pytest.raises(ParseError):
            parse_select("SELECT a.id WHERE a.id = 1")

    def test_count_aggregate(self):
        query = parse_select("SELECT count(t.id) AS n FROM title t")
        assert query.select_items[0].aggregate is AggregateFunc.COUNT
        assert query.select_items[0].output_name == "n"

    def test_roundtrip_to_sql_reparses(self):
        query = parse_select(JOB_LIKE)
        reparsed = parse_select(query.to_sql())
        assert len(reparsed.predicates) == len(query.predicates)
        assert [t.alias for t in reparsed.tables] == [t.alias for t in query.tables]

    def test_numeric_literals_typed(self):
        query = parse_select("SELECT t.id FROM title t WHERE t.x = 1.5 AND t.y = 2")
        first, second = query.predicates
        assert isinstance(first.right.value, float)
        assert isinstance(second.right.value, int)

    def test_negative_literal_folds(self):
        query = parse_select("SELECT t.id FROM title t WHERE t.x = -3")
        assert query.predicates[0].right == Literal(-3)


class TestExpressionGrammar:
    """The precedence-climbing expression parser."""

    def test_arithmetic_precedence(self):
        expr = parse_expression("a + b * c")
        assert isinstance(expr, Arithmetic) and expr.op is ArithOp.ADD
        assert isinstance(expr.right, Arithmetic)
        assert expr.right.op is ArithOp.MUL

    def test_left_associativity(self):
        expr = parse_expression("a - b - c")
        assert expr.op is ArithOp.SUB
        assert isinstance(expr.left, Arithmetic) and expr.left.op is ArithOp.SUB
        assert isinstance(expr.right, Column)

    def test_parentheses_override_precedence(self):
        expr = parse_expression("(a + b) * c")
        assert expr.op is ArithOp.MUL
        assert isinstance(expr.left, Arithmetic) and expr.left.op is ArithOp.ADD

    def test_unary_minus_on_column(self):
        expr = parse_expression("-a * b")
        # Unary minus binds tighter than '*'.
        assert expr.op is ArithOp.MUL
        from repro.sql import Negate

        assert isinstance(expr.left, Negate)

    def test_modulo_and_division(self):
        expr = parse_expression("a % 2 = b / 3")
        assert isinstance(expr, Comparison)
        assert expr.left.op is ArithOp.MOD
        assert expr.right.op is ArithOp.DIV

    def test_comparison_binds_looser_than_arithmetic(self):
        expr = parse_expression("a + 1 < b * 2")
        assert isinstance(expr, Comparison) and expr.op is ComparisonOp.LT
        assert isinstance(expr.left, Arithmetic)
        assert isinstance(expr.right, Arithmetic)

    def test_not_and_or_precedence(self):
        expr = parse_expression("NOT a = 1 OR b = 2 AND c = 3")
        # OR(NOT(a=1), AND(b=2, c=3))
        assert isinstance(expr, BoolExpr) and expr.op is BoolConnective.OR
        assert isinstance(expr.operands[0], Not)
        inner = expr.operands[1]
        assert isinstance(inner, BoolExpr) and inner.op is BoolConnective.AND

    def test_nested_boolean_trees_flatten(self):
        expr = parse_expression("a = 1 AND (b = 2 AND c = 3)")
        assert isinstance(expr, BoolExpr) and expr.op is BoolConnective.AND
        assert len(expr.operands) == 3

    def test_case_when(self):
        expr = parse_expression(
            "CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END"
        )
        assert isinstance(expr, Case)
        assert len(expr.whens) == 2
        assert expr.default == Literal("zero")

    def test_case_without_else(self):
        expr = parse_expression("CASE WHEN a = 1 THEN 2 END")
        assert isinstance(expr, Case)
        assert expr.default is None

    def test_case_requires_when(self):
        with pytest.raises(ParseError, match="CASE requires at least one WHEN"):
            parse_expression("CASE ELSE 1 END")

    def test_boolean_literals(self):
        assert parse_expression("TRUE") == Literal(True)
        assert parse_expression("FALSE") == Literal(False)

    def test_arithmetic_in_select_list(self):
        query = parse_select("SELECT t.a * 2 + t.b AS s FROM t")
        item = query.select_items[0]
        assert item.output_name == "s"
        assert isinstance(item.expr, Arithmetic)

    def test_aggregate_over_expression(self):
        query = parse_select("SELECT sum(t.a * t.b) AS v FROM t")
        item = query.select_items[0]
        assert item.aggregate is AggregateFunc.SUM
        assert isinstance(item.expr, Arithmetic)

    def test_expression_roundtrips_tree_identically(self):
        for sql in (
            "a + (b + c)",
            "(a - b) * (c / d)",
            "NOT (a = 1 OR b = 2)",
            "CASE WHEN a IS NULL THEN 0 ELSE a % 5 END",
            "a * -3 + 2",
        ):
            expr = parse_expression(sql)
            assert parse_expression(expr.to_sql()) == expr, sql

    def test_not_requires_predicate_keyword(self):
        with pytest.raises(ParseError, match="expected IN, LIKE or BETWEEN"):
            parse_expression("a NOT = 1")


class TestResultShapingClauses:
    def test_group_by(self):
        query = parse_select(
            "SELECT t.kind_id, count(t.id) AS n FROM title t GROUP BY t.kind_id"
        )
        assert [str(c) for c in query.group_by] == ["t.kind_id"]
        assert query.select_items[1].aggregate is AggregateFunc.COUNT

    def test_count_star(self):
        query = parse_select("SELECT count(*) AS n FROM title t")
        item = query.select_items[0]
        assert item.aggregate is AggregateFunc.COUNT
        assert item.column is None and item.star
        assert str(item) == "count(*) AS n"

    def test_sum_and_avg(self):
        query = parse_select("SELECT sum(t.id) s, avg(t.id) a FROM title t")
        assert query.select_items[0].aggregate is AggregateFunc.SUM
        assert query.select_items[1].aggregate is AggregateFunc.AVG

    def test_star_only_in_count(self):
        with pytest.raises(ParseError, match=r"'\*' is only allowed inside COUNT"):
            parse_select("SELECT sum(*) FROM title t")

    def test_order_by_directions(self):
        query = parse_select(
            "SELECT t.id, t.title FROM title t ORDER BY t.id DESC, t.title ASC, t.kind_id"
        )
        assert [(str(k.column), k.ascending) for k in query.order_by] == [
            ("t.id", False),
            ("t.title", True),
            ("t.kind_id", True),
        ]

    def test_limit_and_offset(self):
        query = parse_select("SELECT t.id FROM title t LIMIT 10 OFFSET 3")
        assert query.limit == 10
        assert query.offset == 3

    def test_limit_without_offset(self):
        query = parse_select("SELECT t.id FROM title t LIMIT 0")
        assert query.limit == 0
        assert query.offset is None

    def test_distinct(self):
        query = parse_select("SELECT DISTINCT t.kind_id FROM title t")
        assert query.distinct

    def test_full_clause_ordering(self):
        query = parse_select(
            "SELECT t.kind_id, min(t.title) AS first_title\n"
            "FROM title t WHERE t.production_year > 2000\n"
            "GROUP BY t.kind_id ORDER BY first_title DESC LIMIT 5 OFFSET 1;"
        )
        assert query.group_by and query.order_by
        assert (query.limit, query.offset) == (5, 1)

    def test_shaped_roundtrip_to_sql_reparses(self):
        sql = (
            "SELECT DISTINCT t.kind_id, count(*) AS n FROM title t "
            "WHERE t.production_year > 1990 "
            "GROUP BY t.kind_id ORDER BY n DESC, t.kind_id LIMIT 7 OFFSET 2"
        )
        query = parse_select(sql)
        reparsed = parse_select(query.to_sql())
        assert reparsed.to_sql() == query.to_sql()

    def test_negative_limit_rejected(self):
        with pytest.raises(ParseError, match="non-negative integer"):
            parse_select("SELECT t.id FROM title t LIMIT -1")

    def test_keyword_named_columns_addressable_when_qualified(self):
        # Keywords are unambiguous after 'alias.', so columns that collide
        # with (new) keywords remain queryable in qualified form.
        query = parse_select(
            "SELECT t.sum, max(t.order) AS hi FROM t AS t "
            "WHERE t.count > 1 GROUP BY t.sum ORDER BY t.sum"
        )
        assert str(query.select_items[0].column) == "t.sum"
        assert str(query.group_by[0]) == "t.sum"


class TestParserErrorMessages:
    """Error messages carry the token offset, line/column and a SQL excerpt."""

    def test_bare_column_with_aggregates(self):
        sql = "SELECT t.title, count(t.id) AS n FROM title t"
        with pytest.raises(ParseError) as excinfo:
            parse_select(sql)
        message = str(excinfo.value)
        assert (
            "bare column t.title cannot be mixed with aggregates "
            "without GROUP BY" in message
        )
        assert "at offset 7" in message
        assert "near 't.title, count(t.id) AS...'" in message
        assert excinfo.value.position == 7

    def test_misplaced_limit_before_from(self):
        sql = "SELECT t.id LIMIT 5 FROM title t"
        with pytest.raises(ParseError) as excinfo:
            parse_select(sql)
        message = str(excinfo.value)
        assert "LIMIT must come after the FROM clause" in message
        assert "at offset 12" in message
        assert "near 'LIMIT 5 FROM title t'" in message

    def test_multi_line_sql_reports_line_and_column(self):
        sql = "SELECT t.id\nFROM title t\nWHERE t.id <\nLIMIT 3"
        with pytest.raises(ParseError) as excinfo:
            parse_select(sql)
        # The offending token is LIMIT at offset 38, the start of line 4.
        assert excinfo.value.line == 4
        assert excinfo.value.column == 1
        assert str(excinfo.value) == (
            "expected an expression but found 'limit' "
            "(at offset 38, line 4 column 1, near 'LIMIT 3')"
        )

    def test_single_line_sql_reports_line_one(self):
        with pytest.raises(ParseError) as excinfo:
            parse_select("SELECT t.id FROM title t LIMIT x")
        assert excinfo.value.line == 1
        assert excinfo.value.column == 32
        assert "line 1 column 32" in str(excinfo.value)

    def test_limit_before_order_by_reports_clause_order(self):
        sql = "SELECT t.id FROM title t LIMIT 2 ORDER BY t.id"
        with pytest.raises(ParseError) as excinfo:
            parse_select(sql)
        message = str(excinfo.value)
        assert "ORDER is out of order" in message
        assert "WHERE, GROUP BY, ORDER BY, LIMIT" in message
        assert "near 'ORDER BY t.id'" in message

    def test_offset_after_from_reports_limit_requirement(self):
        with pytest.raises(ParseError, match="only valid directly after LIMIT"):
            parse_select("SELECT t.id FROM title t OFFSET 2")

    def test_group_without_by(self):
        with pytest.raises(ParseError, match="expected keyword 'BY'"):
            parse_select("SELECT count(*) FROM title t GROUP t.kind_id")

    def test_error_at_end_of_input(self):
        with pytest.raises(ParseError, match="near 'end of input'"):
            parse_select("SELECT t.id FROM title t LIMIT")

    def test_string_literal_error_points_at_its_opening_quote(self):
        # A string token's offset is its first character, not one past its end.
        with pytest.raises(ParseError) as excinfo:
            parse_select("SELECT * FROM t WHERE a = 'abc' 'def'")
        assert excinfo.value.position == 32
        assert str(excinfo.value) == (
            "unexpected trailing input 'def' "
            "(at offset 32, line 1 column 33, near \"'def'\")"
        )
