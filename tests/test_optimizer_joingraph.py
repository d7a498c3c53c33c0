"""Unit tests for the join graph."""

from itertools import combinations

from repro.optimizer import JoinGraph
from repro.sql import QueryBuilder
from repro.sql.ast import Comparison, ComparisonOp, column


def chain_query(n=4):
    """t1 - t2 - t3 - ... chain query over the stocks schema-ish tables."""
    builder = QueryBuilder(name="chain")
    for i in range(n):
        builder.add_table("company", f"t{i}")
    for i in range(n - 1):
        builder.add_join(f"t{i}", "id", f"t{i+1}", "id")
    return builder.build()


def star_query():
    """Star around ``t`` with three satellites."""
    builder = QueryBuilder(name="star")
    builder.add_table("title", "t")
    for alias in ("a", "b", "c"):
        builder.add_table("movie_keyword", alias)
        builder.add_join("t", "id", alias, "movie_id")
    return builder.build()


class TestJoinGraph:
    def test_neighbors_and_degree(self):
        graph = JoinGraph(star_query())
        # Bits follow sorted alias order: a, b, c, t.
        assert graph.names == ("a", "b", "c", "t")
        assert graph.bits["a"] == 1 and graph.bits["t"] == 8
        assert graph.neighbours(graph.bits["t"]) == graph.mask("abc")
        assert graph.neighbours(graph.mask("at")) == graph.mask("bc")
        assert graph.aliases_of(graph.neighbours(graph.bits["a"])) == {"t"}

    def test_edges(self):
        graph = JoinGraph(chain_query(3))
        assert graph.edges() == [("t0", "t1"), ("t1", "t2")]

    def test_is_connected(self):
        graph = JoinGraph(star_query())
        assert graph.is_connected(graph.mask("ta"))
        assert graph.is_connected(graph.mask("tabc"))
        assert not graph.is_connected(graph.mask("ab"))
        assert not graph.is_connected(0)
        assert graph.is_connected(graph.mask("a"))

    def test_connects(self):
        graph = JoinGraph(star_query())
        assert graph.neighbours(graph.mask("t")) & graph.mask("a")
        assert not graph.neighbours(graph.mask("a")) & graph.mask("b")

    def test_pick_removable_keeps_the_rest_connected(self):
        graph = JoinGraph(star_query())
        # The hub t is the highest alias but would disconnect a, b, c.
        assert graph.pick_removable(graph.mask("tabc")) == graph.bits["c"]
        assert graph.pick_removable(graph.mask("ta")) == graph.bits["t"]
        # Disconnected: the highest alias is peeled off.
        assert graph.pick_removable(graph.mask("ab")) == graph.bits["b"]

    def test_connected_components(self):
        graph = JoinGraph(chain_query(4))
        components = graph.connected_components()
        assert len(components) == 1
        assert components[0] == {"t0", "t1", "t2", "t3"}

    def test_connected_subsets_of_size(self):
        graph = JoinGraph(chain_query(4))
        pairs = graph.connected_subsets_of_size(2)
        assert len(pairs) == 3  # chain of 4 has 3 adjacent pairs
        triples = graph.connected_subsets_of_size(3)
        assert len(triples) == 2
        assert graph.connected_subsets_of_size(0) == []
        assert graph.connected_subsets_of_size(9) == []

    def test_connected_subsets_star(self):
        graph = JoinGraph(star_query())
        # Star with 3 satellites: pairs = 3 (each satellite with hub).
        assert len(graph.connected_subsets_of_size(2)) == 3
        # Triples: hub + any 2 satellites = C(3,2) = 3.
        assert len(graph.connected_subsets_of_size(3)) == 3
        assert len(graph.connected_subsets_up_to(2)) == 4 + 3

    def test_connected_levels_list_combinations_order(self):
        """Each level is exactly the connected subsets, in the order
        ``combinations(query.aliases, k)`` lists them."""
        builder = QueryBuilder(name="mixed")
        for alias in ("t", "mk", "k", "ci", "n", "a"):
            builder.add_table("title", alias)
        builder.add_join("t", "id", "mk", "id")
        builder.add_join("mk", "id", "k", "id")
        builder.add_join("t", "id", "ci", "id")
        builder.add_join("ci", "id", "n", "id")
        builder.add_residual(
            Comparison(ComparisonOp.LT, column("n", "id"), column("a", "id"))
        )
        query = builder.build()
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

    def test_joins_between_sets(self):
        graph = JoinGraph(star_query())
        joins = graph.joins_between(graph.mask("ta"), graph.mask("b"))
        assert len(joins) == 1

    def test_to_dot_and_text(self):
        graph = JoinGraph(star_query())
        dot = graph.to_dot()
        assert "graph star" in dot
        assert "t -- " in dot or "a -- " in dot
        text = graph.to_text()
        assert "join graph of star" in text
