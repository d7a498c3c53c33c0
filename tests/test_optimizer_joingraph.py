"""Unit tests for the join graph."""

from itertools import combinations

import pytest

from repro.optimizer import JoinGraph


def chain_query(db, n):
    """t0 - t1 - t2 - ... chain of ``company`` aliases joined on ``id``."""
    tables = ", ".join(f"company AS t{i}" for i in range(n))
    joins = " AND ".join(f"t{i}.id = t{i + 1}.id" for i in range(n - 1))
    return db.parse(f"SELECT * FROM {tables} WHERE {joins}", name="chain")


def star_query(db):
    """Star around ``t`` with three satellites."""
    return db.parse(
        "SELECT * FROM company AS t, trades AS a, trades AS b, trades AS c "
        "WHERE t.id = a.company_id AND t.id = b.company_id AND t.id = c.company_id",
        name="star",
    )


def _subsets_by_size(graph):
    """The connected alias subsets ``connected_levels`` lists, by size."""
    levels = ([graph.aliases_of(mask) for mask in masks] for masks in graph.connected_levels())
    return {len(level[0]): level for level in levels}


@pytest.fixture
def star(shared_stock_db):
    return JoinGraph(star_query(shared_stock_db))


class TestJoinGraph:
    def test_neighbors_and_degree(self, star):
        graph = star
        # Bits follow sorted alias order: a, b, c, t.
        assert graph.names == ("a", "b", "c", "t")
        assert graph.bits["a"] == 1 and graph.bits["t"] == 8
        assert graph.neighbours(graph.bits["t"]) == graph.mask("abc")
        assert graph.neighbours(graph.mask("at")) == graph.mask("bc")
        assert graph.aliases_of(graph.neighbours(graph.bits["a"])) == {"t"}

    def test_edges(self, shared_stock_db):
        graph = JoinGraph(chain_query(shared_stock_db, 3))
        assert graph.edges() == [("t0", "t1"), ("t1", "t2")]

    def test_is_connected(self, star):
        graph = star
        assert graph.is_connected(graph.mask("ta"))
        assert graph.is_connected(graph.mask("tabc"))
        assert not graph.is_connected(graph.mask("ab"))
        assert not graph.is_connected(0)
        assert graph.is_connected(graph.mask("a"))

    def test_connects(self, star):
        graph = star
        assert graph.neighbours(graph.mask("t")) & graph.mask("a")
        assert not graph.neighbours(graph.mask("a")) & graph.mask("b")

    def test_pick_removable_keeps_the_rest_connected(self, star):
        graph = star
        # The hub t is the highest alias but would disconnect a, b, c.
        assert graph.pick_removable(graph.mask("tabc")) == graph.bits["c"]
        assert graph.pick_removable(graph.mask("ta")) == graph.bits["t"]
        # Disconnected: the highest alias is peeled off.
        assert graph.pick_removable(graph.mask("ab")) == graph.bits["b"]

    def test_connected_components(self, shared_stock_db):
        graph = JoinGraph(chain_query(shared_stock_db, 4))
        components = graph.connected_components()
        assert len(components) == 1
        assert components[0] == {"t0", "t1", "t2", "t3"}

    def test_connected_levels_of_a_chain(self, shared_stock_db):
        graph = JoinGraph(chain_query(shared_stock_db, 4))
        levels = _subsets_by_size(graph)
        # A chain of 4 has 3 adjacent pairs, 2 triples and the whole chain.
        assert levels[2] == [{"t0", "t1"}, {"t1", "t2"}, {"t2", "t3"}]
        assert levels[3] == [{"t0", "t1", "t2"}, {"t1", "t2", "t3"}]
        assert levels[4] == [{"t0", "t1", "t2", "t3"}]
        assert sorted(levels) == [1, 2, 3, 4]

    def test_connected_levels_of_a_star(self, star):
        levels = _subsets_by_size(star)
        # Star with 3 satellites: pairs = 3 (each satellite with hub).
        assert len(levels[2]) == 3
        assert all("t" in pair for pair in levels[2])
        # Triples: hub + any 2 satellites = C(3,2) = 3.
        assert len(levels[3]) == 3
        assert len(levels[1]) + len(levels[2]) == 4 + 3

    def test_connected_levels_list_combinations_order(self, shared_stock_db):
        """Each level is exactly the connected subsets, in the order
        ``combinations(query.aliases, k)`` lists them."""
        aliases = ("t", "mk", "k", "ci", "n", "a")
        query = shared_stock_db.parse(
            "SELECT * FROM " + ", ".join(f"company AS {a}" for a in aliases)
            + " WHERE t.id = mk.id AND mk.id = k.id AND t.id = ci.id AND ci.id = n.id"
            " AND n.id < a.id",
            name="mixed",
        )
        assert len(query.residuals) == 1
        graph = JoinGraph(query)
        levels = list(graph.connected_levels())
        assert len(levels) == len(query.aliases)
        for size, level in enumerate(levels, 1):
            expected = [
                graph.mask(combo)
                for combo in combinations(query.aliases, size)
                if graph.is_connected(graph.mask(combo))
            ]
            assert level == expected

    def test_joins_between_sets(self, star):
        graph = star
        joins = graph.joins_between(graph.mask("ta"), graph.mask("b"))
        assert len(joins) == 1

    def test_to_dot_and_text(self, star):
        graph = star
        dot = graph.to_dot()
        assert "graph star" in dot
        assert "t -- " in dot or "a -- " in dot
        text = graph.to_text()
        assert "join graph of star" in text
