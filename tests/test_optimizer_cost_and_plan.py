"""Unit tests for the cost model and plan node helpers."""

import pytest

from repro.optimizer import CostModel, CostParameters
from repro.optimizer.plan import (
    AccessPath,
    AggregateNode,
    JoinAlgorithm,
    JoinNode,
    ScanNode,
)
from repro.sql.binder import BoundJoin


@pytest.fixture
def cost_model(stock_db):
    return CostModel(stock_db.catalog, CostParameters())


class TestCostModel:
    def test_seq_scan_scales_with_rows(self, cost_model):
        small = cost_model.seq_scan_cost("company", 150, 1)
        large = cost_model.seq_scan_cost("trades", 4000, 1)
        assert large > small

    def test_index_scan_cheaper_for_selective_lookup(self, cost_model):
        seq = cost_model.seq_scan_cost("trades", 4000, 1)
        index = cost_model.index_scan_cost("trades", 5, 0)
        assert index < seq

    def test_nested_loop_grows_quadratically(self, cost_model):
        small = cost_model.nested_loop_cost(10, 10, 10)
        large = cost_model.nested_loop_cost(1000, 1000, 10)
        assert large > 1000 * small / 10

    def test_hash_join_linear(self, cost_model):
        base = cost_model.hash_join_cost(1000, 1000, 1000)
        double = cost_model.hash_join_cost(2000, 2000, 2000)
        assert 1.5 * base < double < 3 * base

    def test_index_nested_loop_dominated_by_probes(self, cost_model):
        few_probes = cost_model.index_nested_loop_cost(10, 10, 0)
        many_probes = cost_model.index_nested_loop_cost(100000, 10, 0)
        assert many_probes > 1000 * few_probes / 10

    def test_merge_join_includes_sort(self, cost_model):
        with_sort = cost_model.merge_join_cost(10000, 10000, 10)
        hash_cost = cost_model.hash_join_cost(10000, 10000, 10)
        assert with_sort > hash_cost

    def test_materialize_and_aggregate_positive(self, cost_model):
        assert cost_model.materialize_cost(1000, 3) > 0
        assert cost_model.aggregate_cost(1000, 2) > 0

    def test_table_pages(self, cost_model):
        assert cost_model.table_pages("trades") >= cost_model.table_pages("company")


def _scan(alias, table):
    return ScanNode(alias=alias, table=table, filters=(), access_path=AccessPath.SEQ_SCAN)


class TestPlanNodes:
    def test_scan_aliases_and_label(self):
        scan = _scan("c", "company")
        assert scan.aliases == frozenset({"c"})
        assert "company" in scan.label()

    def test_join_aliases_union(self):
        join = JoinNode(
            left=_scan("c", "company"),
            right=_scan("t", "trades"),
            join_predicates=(BoundJoin("c", "id", "t", "company_id"),),
            algorithm=JoinAlgorithm.HASH_JOIN,
        )
        assert join.aliases == frozenset({"c", "t"})
        assert "Hash Join" in join.label()

    def test_walk_and_counts(self):
        join = JoinNode(
            left=_scan("c", "company"),
            right=_scan("t", "trades"),
            join_predicates=(BoundJoin("c", "id", "t", "company_id"),),
        )
        root = AggregateNode(child=join, select_items=())
        walked = [type(node).__name__ for node in root.walk()]
        assert len(walked) == 4 and walked[0] == "AggregateNode"

    def test_join_nodes_bottom_up(self):
        inner = JoinNode(
            left=_scan("a", "company"),
            right=_scan("b", "trades"),
            join_predicates=(BoundJoin("a", "id", "b", "company_id"),),
        )
        outer = JoinNode(
            left=inner,
            right=_scan("c", "company"),
            join_predicates=(BoundJoin("b", "company_id", "c", "id"),),
        )
        ordered = outer.join_nodes()
        assert [len(node.aliases) for node in ordered] == [2, 3]

    def test_node_ids_unique(self):
        nodes = [_scan(f"a{i}", "company") for i in range(5)]
        assert len({node.node_id for node in nodes}) == 5
