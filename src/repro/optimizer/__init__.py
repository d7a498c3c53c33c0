"""Optimizer subsystem: join graph, cardinality estimation, cost model, enumeration."""

from repro.optimizer.cardinality import CardinalityEstimator, SelectivityEstimator
from repro.optimizer.cost import CostModel, CostParameters
from repro.optimizer.enumeration import JoinEnumerator, PlannerConfig
from repro.optimizer.injection import (
    CardinalityInjector,
    ChainInjection,
    DictInjection,
    PerfectInjection,
)
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.optimizer import Optimizer, PlannedQuery, PlanningStats
from repro.optimizer.plan import (
    AccessPath,
    AggregateNode,
    DistinctNode,
    HashAggregateNode,
    JoinAlgorithm,
    JoinNode,
    LimitNode,
    PlanNode,
    ScanNode,
    SortNode,
)
from repro.optimizer.provenance import (
    harvest_observations,
    plan_output_columns,
    runtime_injection,
    translate_observations,
)

__all__ = [
    "AccessPath",
    "AggregateNode",
    "CardinalityEstimator",
    "CardinalityInjector",
    "ChainInjection",
    "CostModel",
    "CostParameters",
    "DictInjection",
    "DistinctNode",
    "HashAggregateNode",
    "JoinAlgorithm",
    "JoinEnumerator",
    "JoinGraph",
    "JoinNode",
    "LimitNode",
    "Optimizer",
    "PerfectInjection",
    "PlanNode",
    "PlannedQuery",
    "PlannerConfig",
    "PlanningStats",
    "ScanNode",
    "SelectivityEstimator",
    "SortNode",
    "harvest_observations",
    "plan_output_columns",
    "runtime_injection",
    "translate_observations",
]
