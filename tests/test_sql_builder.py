"""Unit tests for the collapse rewrite and the referenced-column lists of
:mod:`repro.sql.builder`, over queries bound from SQL text."""

import pytest

from repro.errors import BindError
from repro.sql import collapse_aliases, referenced_columns

THREE_TABLE_SQL = (
    "SELECT min(t.title) AS movie_title "
    "FROM keyword AS k, movie_keyword AS mk, title AS t "
    "WHERE k.keyword = 'superhero' AND k.id = mk.keyword_id AND mk.movie_id = t.id"
)


@pytest.fixture
def three_table_query(imdb_db):
    return imdb_db.parse(THREE_TABLE_SQL, name="demo")


class TestBoundQueryShape:
    def test_binds_aliases_joins_and_filters(self, three_table_query):
        query = three_table_query
        assert query.name == "demo"
        assert query.aliases == ["k", "mk", "t"]
        assert query.table_for("mk") == "movie_keyword"
        assert len(query.joins) == 2
        assert len(query.filters_for("k")) == 1

    def test_shaping_clauses_carried_into_bound_query(self, stock_db):
        query = stock_db.parse(
            "SELECT DISTINCT c.sector AS s FROM company AS c "
            "ORDER BY s DESC LIMIT 3 OFFSET 1",
            name="shaped",
        )
        assert query.distinct
        assert [(k.alias, k.column, k.ascending) for k in query.order_by] == [
            ("", "s", False)
        ]
        assert (query.limit, query.offset) == (3, 1)


class TestReferencedColumns:
    def test_select_and_boundary_joins(self, three_table_query):
        needed = referenced_columns(three_table_query, ["k", "mk"])
        # mk.movie_id joins to t outside the group; the select list does not
        # reference k or mk, so only the boundary join column is needed.
        assert needed == [("mk", "movie_id")]

    def test_select_columns_included(self, three_table_query):
        needed = referenced_columns(three_table_query, ["t"])
        assert ("t", "title") in needed
        assert ("t", "id") in needed


class TestCollapseAliases:
    def test_collapse_two_aliases(self, three_table_query):
        rewritten = collapse_aliases(
            three_table_query,
            ["k", "mk"],
            temp_table="temp1",
            temp_alias="temp1",
            column_mapping={("mk", "movie_id"): "mk_movie_id"},
        )
        assert rewritten.aliases == ["t", "temp1"]
        assert rewritten.table_for("temp1") == "temp1"
        assert len(rewritten.joins) == 1
        join = rewritten.joins[0]
        assert {join.left_alias, join.right_alias} == {"t", "temp1"}
        assert join.column_for("temp1") == "mk_movie_id"
        # Filters on collapsed aliases disappear (they are baked into the temp table).
        assert rewritten.filters == {}

    def test_missing_mapping_rejected(self, three_table_query):
        with pytest.raises(BindError):
            collapse_aliases(
                three_table_query, ["k", "mk"], "temp1", "temp1", column_mapping={}
            )

    def test_unknown_alias_rejected(self, three_table_query):
        with pytest.raises(BindError):
            collapse_aliases(three_table_query, ["zz"], "temp1", "temp1", column_mapping={})

    def test_original_query_untouched(self, three_table_query):
        collapse_aliases(
            three_table_query,
            ["k", "mk"],
            temp_table="temp1",
            temp_alias="temp1",
            column_mapping={("mk", "movie_id"): "mk_movie_id"},
        )
        assert three_table_query.aliases == ["k", "mk", "t"]
        assert len(three_table_query.joins) == 2
