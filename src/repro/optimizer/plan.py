"""Physical plan nodes.

The optimizer produces a tree of :class:`PlanNode` objects.  Every node
carries the optimizer's *estimated* cardinality and cost; after execution the
executor attaches *actual* cardinalities and work, which is what the
re-optimization trigger inspects (the engine's equivalent of
``EXPLAIN ANALYZE``).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from repro.sql.ast import ColumnRef, Expr, SelectItem
from repro.sql.binder import BoundJoin, BoundSortKey

_node_counter = itertools.count()


class AccessPath(enum.Enum):
    """How a base table is read."""

    SEQ_SCAN = "seq_scan"
    INDEX_SCAN = "index_scan"


class JoinAlgorithm(enum.Enum):
    """Physical join operator choices."""

    HASH_JOIN = "hash_join"
    NESTED_LOOP = "nested_loop"
    INDEX_NESTED_LOOP = "index_nested_loop"
    MERGE_JOIN = "merge_join"


@dataclass
class PlanNode:
    """Base class for plan nodes."""

    node_id: int = field(init=False)
    estimated_rows: float = field(init=False, default=0.0)
    estimated_cost: float = field(init=False, default=0.0)
    actual_rows: Optional[int] = field(init=False, default=None)
    actual_work: Optional[float] = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.node_id = next(_node_counter)

    @property
    def aliases(self) -> FrozenSet[str]:
        """Aliases whose tables feed this node."""
        raise NotImplementedError

    def children(self) -> Tuple["PlanNode", ...]:
        """Direct child nodes."""
        return ()

    def walk(self):
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def join_nodes(self) -> List["JoinNode"]:
        """All join nodes in the subtree, bottom-up (smallest alias sets first)."""
        joins = [node for node in self.walk() if isinstance(node, JoinNode)]
        joins.sort(key=lambda node: (len(node.aliases), tuple(sorted(node.aliases))))
        return joins

    def label(self) -> str:
        """Short human-readable description (used by EXPLAIN)."""
        raise NotImplementedError


@dataclass
class ScanNode(PlanNode):
    """Scan of a single base table (sequential or through an index).

    For partitioned tables, ``partitions_total`` records the shard count and
    ``pruned_partitions`` the shards whose zone maps refute the pushed-down
    filters at *plan* time (EXPLAIN's ``Partitions: k/n scanned``).  The
    executor re-derives the pruning at execution time — table loads do not
    invalidate cached plans, so the plan-time set is advisory, never a
    correctness input.

    ``columns`` is the projection-pushdown set: the schema-ordered columns
    the rest of the query can reference (select expressions, the pushed-down
    filters themselves, join keys, residuals, sort/group keys).  ``None``
    means full width — ``SELECT *`` queries, or a referenced set covering
    every column — and keeps the engines' zero-copy full-width paths.
    ``columns_total`` is the table's schema width (EXPLAIN's
    ``Columns: k/n read``).
    """

    alias: str
    table: str
    filters: Tuple[Expr, ...] = ()
    access_path: AccessPath = AccessPath.SEQ_SCAN
    index_column: Optional[str] = None
    index_filter: Optional[Expr] = None
    partitions_total: Optional[int] = None
    pruned_partitions: Tuple[int, ...] = ()
    columns: Optional[Tuple[str, ...]] = None
    columns_total: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self._alias_set = frozenset((self.alias,))

    @property
    def aliases(self) -> FrozenSet[str]:
        return self._alias_set

    def label(self) -> str:
        path = "Seq Scan" if self.access_path is AccessPath.SEQ_SCAN else "Index Scan"
        text = f"{path} on {self.table} {self.alias}"
        if self.access_path is AccessPath.INDEX_SCAN and self.index_column:
            text += f" (index: {self.index_column})"
        return text


@dataclass
class JoinNode(PlanNode):
    """Join of two plan subtrees.

    ``join_predicates`` are the equi-join keys the physical algorithms run
    on; ``residual_filters`` are the non-equi join predicates applied to the
    joined rows (a join with only residual filters executes as a filtered
    cross product — the planner forces nested-loop costing for those).
    """

    left: PlanNode
    right: PlanNode
    join_predicates: Tuple[BoundJoin, ...]
    algorithm: JoinAlgorithm = JoinAlgorithm.HASH_JOIN
    residual_filters: Tuple[Expr, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        self._alias_set = self.left.aliases | self.right.aliases

    @property
    def aliases(self) -> FrozenSet[str]:
        return self._alias_set

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        names = {
            JoinAlgorithm.HASH_JOIN: "Hash Join",
            JoinAlgorithm.NESTED_LOOP: "Nested Loop",
            JoinAlgorithm.INDEX_NESTED_LOOP: "Index Nested Loop",
            JoinAlgorithm.MERGE_JOIN: "Merge Join",
        }
        conditions = " AND ".join(j.to_sql() for j in self.join_predicates)
        if not conditions and self.residual_filters:
            conditions = "residual filter"
        text = f"{names[self.algorithm]} on ({conditions})"
        if self.join_predicates and self.residual_filters:
            text += " + residual filter"
        return text


@dataclass
class AggregateNode(PlanNode):
    """Final aggregation / projection producing the query output."""

    child: PlanNode
    select_items: Tuple[SelectItem, ...]

    def __post_init__(self) -> None:
        super().__post_init__()

    @property
    def aliases(self) -> FrozenSet[str]:
        return self.child.aliases

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        if any(item.aggregate is not None for item in self.select_items):
            return "Aggregate"
        return "Project"


@dataclass
class HashAggregateNode(PlanNode):
    """Grouped aggregation: hash on the group keys, fold aggregates per group."""

    child: PlanNode
    group_keys: Tuple[ColumnRef, ...]
    select_items: Tuple[SelectItem, ...]

    def __post_init__(self) -> None:
        super().__post_init__()

    @property
    def aliases(self) -> FrozenSet[str]:
        return self.child.aliases

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(str(key) for key in self.group_keys)
        return f"HashAggregate (keys: {keys})"


@dataclass
class SortNode(PlanNode):
    """Sort of the query output on one or more keys.

    Under ``LIMIT`` the planner appends a deterministic tie-break below the
    declared keys — either explicit expressions over the sort input
    (``tie_break``) or every input column positionally (``tie_break_all``) —
    so the rows surviving the limit cut no longer depend on which plan
    produced the input order.  Without a limit the whole result is returned
    and ties may keep plan order.
    """

    child: PlanNode
    keys: Tuple[BoundSortKey, ...]
    tie_break: Tuple[Expr, ...] = ()
    tie_break_all: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()

    @property
    def aliases(self) -> FrozenSet[str]:
        return self.child.aliases

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        # to_sql() renders " DESC" itself; spell out ASC for readability.
        keys = ", ".join(
            key.to_sql() + (" ASC" if key.ascending else "") for key in self.keys
        )
        return f"Sort ({keys})"


@dataclass
class LimitNode(PlanNode):
    """LIMIT/OFFSET applied to the (possibly sorted) query output."""

    child: PlanNode
    limit: int
    offset: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()

    @property
    def aliases(self) -> FrozenSet[str]:
        return self.child.aliases

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        text = f"Limit {self.limit}"
        if self.offset:
            text += f" offset {self.offset}"
        return text


@dataclass
class DistinctNode(PlanNode):
    """Duplicate elimination over the projected output rows."""

    child: PlanNode

    def __post_init__(self) -> None:
        super().__post_init__()

    @property
    def aliases(self) -> FrozenSet[str]:
        return self.child.aliases

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return "Distinct"


@dataclass
class OneTimeFilterNode(PlanNode):
    """A constant WHERE condition evaluated once per statement.

    The binder folds literal-only predicates (``WHERE 1 = 1``,
    ``WHERE 2 < 1``) into constants; the planner records them on this node
    (PostgreSQL's ``Result (One-Time Filter)``) so EXPLAIN still shows them.
    When ``passes`` is False the executor returns an empty result *without
    executing the child subtree* — the planner-level pruning of
    always-false queries.
    """

    child: PlanNode
    conditions: Tuple[Expr, ...]
    passes: bool

    def __post_init__(self) -> None:
        super().__post_init__()

    @property
    def aliases(self) -> FrozenSet[str]:
        return self.child.aliases

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Result (One-Time Filter: {'true' if self.passes else 'false'})"
