"""Plan execution with instrumentation.

The executor walks a physical plan, computes the exact result rows, and
attaches to every node its *actual* cardinality and *actual work* — the cost
model evaluated with true row counts.  This plays the role of
``EXPLAIN ANALYZE`` in the paper: the re-optimization driver compares each
join's estimated and actual cardinality to decide whether to re-plan.

Two interchangeable operator sets implement the plan nodes, both driven
through the pull-style protocol in :mod:`repro.executor.protocol`:

* :data:`ExecutionEngine.VECTORIZED` (default) — the columnar batch engine
  in :mod:`repro.executor.operators`;
* :data:`ExecutionEngine.REFERENCE` — the original row-at-a-time oracle in
  :mod:`repro.executor.reference`.

Work accounting is **engine-invariant**: charged work depends only on row
counts (rows fetched, join input/output cardinalities, index probe matches),
which both engines compute identically; only wall-clock differs.  This is
what makes differential testing between the engines meaningful.

Hash and nested-loop joins run as the same hash join (``join_results``);
their algorithm changes only the charged work.  An index nested-loop join
runs through the inner table's index (``index_join_results``), which also
returns the index matches it is charged for; its inner scan still runs,
uncharged, so the actual rows the re-optimization loops observe do not
depend on the algorithm.

See README, "Why charged work is engine-invariant", for why deterministic
work units, not wall-clock, are the primary execution-time proxy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.errors import ExecutionError
from repro.executor.protocol import ExecutionEngine, OperatorSet, operators_for
from repro.executor.reference import ResultSet
from repro.optimizer.cost import CostModel
from repro.optimizer.plan import (
    AccessPath,
    AggregateNode,
    DistinctNode,
    HashAggregateNode,
    JoinAlgorithm,
    JoinNode,
    LimitNode,
    OneTimeFilterNode,
    PlanNode,
    ScanNode,
    SortNode,
)
from repro.optimizer.provenance import plan_output_columns
from repro.optimizer.pruning import prune_partitions
from repro.sql.binder import BoundJoin

# Conversion between abstract work units and "simulated seconds" reported by
# the benchmark harness.  The constant is chosen so that a JOB-like workload
# at the default scale lands in the same few-hundred-seconds range as the
# paper's figures; only ratios between regimes matter for the claims.
WORK_UNITS_PER_SECOND = 2_000.0

# Nominal vector size used to report per-operator batch counts.  The batch
# statistic is engine-invariant by construction (derived from row counts the
# engines agree on), so the differential suites can compare it directly.
VECTOR_BATCH_ROWS = 1024


def batch_count(rows: int) -> int:
    """Number of nominal vectors an operator's output occupies (min 1)."""
    return max(1, -(-int(rows) // VECTOR_BATCH_ROWS))


@dataclass
class NodeMetrics:
    """Per-node instrumentation collected during execution.

    Beyond the estimated/actual cardinalities and charged work, the executor
    records ``batches`` (nominal :data:`VECTOR_BATCH_ROWS`-row vectors the
    output occupies — engine-invariant) and, for joins, the build/probe input
    sizes observed at the hash-join pipeline breaker.  Sequential scans of
    partitioned tables record ``partitions_scanned`` /
    ``partitions_pruned`` (the zone-map pruning actually applied at
    execution time) plus the late-materialization counters:
    ``segments_skipped`` (row blocks refuted by sealed min/max/null-count
    synopses before any kernel ran) and ``columns_decoded`` (distinct
    columns actually materialized — the projection-pushdown savings).
    These runtime statistics feed EXPLAIN ANALYZE and the adaptive
    re-optimization loop.
    """

    node_id: int
    label: str
    estimated_rows: float
    actual_rows: int
    work: float
    #: ``work`` minus the children's: what this operator itself was charged.
    own_work: float = 0.0
    batches: int = 1
    build_rows: Optional[int] = None
    probe_rows: Optional[int] = None
    partitions_scanned: Optional[int] = None
    partitions_pruned: Optional[int] = None
    segments_skipped: Optional[int] = None
    columns_decoded: Optional[int] = None


@dataclass
class ExecutionResult:
    """The outcome of executing one physical plan.

    ``result`` is a :class:`~repro.executor.batch.ColumnBatch` under the
    vectorized engine and a :class:`ResultSet` under the reference engine;
    the two are duck-type compatible.
    """

    result: ResultSet
    total_work: float
    wall_seconds: float
    node_metrics: Dict[int, NodeMetrics] = field(default_factory=dict)
    engine: ExecutionEngine = ExecutionEngine.VECTORIZED

    @property
    def simulated_seconds(self) -> float:
        """Total work rescaled to simulated seconds."""
        return self.total_work / WORK_UNITS_PER_SECOND

    @property
    def row_count(self) -> int:
        """Number of rows in the final result."""
        return len(self.result)

    @property
    def rows_processed(self) -> int:
        """Rows produced across all plan nodes (the throughput numerator)."""
        return sum(metric.actual_rows for metric in self.node_metrics.values())

    @property
    def rows_per_second(self) -> float:
        """Real (wall-clock) operator throughput in rows/sec."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.rows_processed / self.wall_seconds


@dataclass
class StagedExecution(ExecutionResult):
    """The outcome of one staged round (:meth:`Executor.execute_staged`).

    With no ``trigger`` this is the plain result of the whole plan.  When the
    round paused, ``result`` and ``total_work`` are those of the ``trigger``
    join's subtree — exactly what executing that sub-join on its own would
    return.  When the round was asked to finish anyway they are the whole
    plan's, and ``trigger_result`` keeps the trigger's rows beside them.
    """

    trigger: Optional[JoinNode] = None
    trigger_result: Optional[ResultSet] = None

    @property
    def trigger_work(self) -> float:
        """Cumulative work of the trigger's subtree."""
        return self.node_metrics[self.trigger.node_id].work


class _StageMemo:
    """Outputs of a staged round that still await their consumer.

    A node's rows stay here only until its parent has run, so a round holds
    what a plain recursive execution would.  The exception is the pinned
    node — the pending trigger candidate, whose rows the caller hands over.
    Which nodes ran, and their work, is in the round's ``NodeMetrics``.
    """

    __slots__ = ("results", "pinned", "pinned_consumed")

    def __init__(self) -> None:
        self.results: Dict[int, ResultSet] = {}
        self.pinned: Optional[int] = None
        self.pinned_consumed = False

    def pin(self, node_id: int) -> None:
        """Keep ``node_id``'s rows past its parent; un-pin the previous candidate."""
        if self.pinned_consumed:
            del self.results[self.pinned]
        self.pinned, self.pinned_consumed = node_id, False

    def release(self, node_id: int) -> None:
        """The parent of ``node_id`` has consumed its rows."""
        if node_id == self.pinned:
            self.pinned_consumed = True
        else:
            self.results.pop(node_id, None)


class Executor:
    """Executes physical plans against a catalog.

    Args:
        catalog: tables and indexes to execute against.
        cost_model: work-accounting model (built from the catalog by default).
        engine: which operator implementation to use; work accounting is
            identical across engines by construction.
    """

    def __init__(
        self,
        catalog: Catalog,
        cost_model: Optional[CostModel] = None,
        engine: ExecutionEngine = ExecutionEngine.VECTORIZED,
    ) -> None:
        self._catalog = catalog
        self.cost_model = cost_model or CostModel(catalog)
        self.engine = ExecutionEngine.from_name(engine)
        self._ops: OperatorSet = operators_for(self.engine)

    @property
    def operators(self):
        """The operator module implementing this executor's engine.

        Exposed so collaborators that evaluate relational operators outside
        a plan (e.g. the true-cardinality oracle's base-table scans) follow
        the configured engine instead of hard-pinning one implementation.
        """
        return self._ops

    def execute(self, plan: PlanNode) -> ExecutionResult:
        """Execute ``plan`` and return its result with instrumentation."""
        return self.execute_staged(plan)

    def execute_staged(
        self,
        plan: PlanNode,
        violates: Optional[Callable[[JoinNode, int], bool]] = None,
        finish: bool = False,
        last: bool = False,
    ) -> StagedExecution:
        """Run ``plan``'s joins bottom-up, pausing where ``violates`` fires.

        This is the one round the re-optimization loop drives.  Every join —
        the only pipeline breaker below other joins — runs once, in
        :meth:`PlanNode.join_nodes` order, and ``violates(join, actual_rows)``
        is asked after each.  At the first join it accepts the round stops
        and returns that join's rows as the trigger; when none does (or
        ``violates`` is ``None``) the root runs and the round is a plain
        execution.  No node runs twice: a join reads its inputs from the
        round's memo.

        ``finish`` runs the plan to its root even after a join violated, for
        callers that need the whole plan's work to decide; only the trigger's
        rows stay pinned meanwhile.  ``last`` (with ``finish``) makes the
        trigger the last violating join in bottom-up order, not the first.

        A plan whose join tree an always-false constant filter prunes is not
        staged: running its joins would execute a subtree the plain executor
        never touches.
        """
        start = time.perf_counter()
        metrics: Dict[int, NodeMetrics] = {}
        memo: Optional[_StageMemo] = None
        trigger: Optional[JoinNode] = None
        stage = violates is not None
        if stage:
            for node in plan.walk():
                # Plan nodes are mutable and may come from the plan cache: a
                # round cut short must not leave the joins above its trigger
                # carrying an earlier execution's actuals.
                node.actual_rows = node.actual_work = None
                if isinstance(node, OneTimeFilterNode) and not node.passes:
                    stage = False
        if stage:
            memo = _StageMemo()
            for join in plan.join_nodes():
                # Only the count is kept: a reference held here would keep
                # the join's rows alive past their consumer.
                actual_rows = len(self._execute_node(join, metrics, memo=memo)[0])
                if (trigger is None or last) and violates(join, actual_rows):
                    trigger = join
                    if not finish:
                        break
                    memo.pin(join.node_id)
        root = plan if trigger is None or finish else trigger
        result, work = self._execute_node(root, metrics, memo=memo)
        return StagedExecution(
            result=result,
            total_work=work,
            wall_seconds=time.perf_counter() - start,
            node_metrics=metrics,
            engine=self.engine,
            trigger=trigger,
            trigger_result=memo.results[trigger.node_id] if trigger else None,
        )

    # -- node dispatch -----------------------------------------------------------

    def _execute_node(
        self,
        node: PlanNode,
        metrics: Dict[int, NodeMetrics],
        charge: bool = True,
        memo: Optional[_StageMemo] = None,
    ) -> Tuple[ResultSet, float]:
        if memo is not None and node.node_id in memo.results:
            return memo.results[node.node_id], metrics[node.node_id].work
        build_rows: Optional[int] = None
        probe_rows: Optional[int] = None
        observed: Dict[str, int] = {}
        if isinstance(node, ScanNode):
            result, work = self._execute_scan(node, observed)
        elif isinstance(node, JoinNode):
            result, work, build_rows, probe_rows = self._execute_join(
                node, metrics, memo, observed
            )
        elif isinstance(node, AggregateNode):
            child_result, child_work = self._execute_node(node.child, metrics, memo=memo)
            result = self._ops.aggregate_result(child_result, list(node.select_items))
            work = child_work + self.cost_model.aggregate_cost(
                len(child_result), max(1, len(node.select_items))
            )
        elif isinstance(node, HashAggregateNode):
            child_result, child_work = self._execute_node(node.child, metrics, memo=memo)
            result = self._ops.group_aggregate_result(
                child_result, list(node.group_keys), list(node.select_items)
            )
            work = child_work + self.cost_model.hash_aggregate_cost(
                len(child_result), len(result), max(1, len(node.select_items))
            )
        elif isinstance(node, SortNode):
            child_result, child_work = self._execute_node(node.child, metrics, memo=memo)
            result = self._ops.sort_result(
                child_result,
                list(node.keys),
                tie_break=list(node.tie_break),
                tie_break_all=node.tie_break_all,
            )
            work = child_work + self.cost_model.sort_cost(
                len(child_result), len(node.keys)
            )
        elif isinstance(node, DistinctNode):
            child_result, child_work = self._execute_node(node.child, metrics, memo=memo)
            result = self._ops.distinct_result(child_result)
            work = child_work + self.cost_model.distinct_cost(
                len(child_result), len(result)
            )
        elif isinstance(node, LimitNode):
            child_result, child_work = self._execute_node(node.child, metrics, memo=memo)
            result = self._ops.limit_result(child_result, node.limit, node.offset)
            work = child_work + self.cost_model.limit_cost(len(result))
        elif isinstance(node, OneTimeFilterNode):
            if node.passes:
                result, work = self._execute_node(node.child, metrics, memo=memo)
            else:
                # The constant filter is false: the child subtree is pruned —
                # never executed, never charged.
                columns = plan_output_columns(node.child, self._catalog)
                result = self._ops.empty_result(columns)
                work = 0.0
        else:
            raise ExecutionError(f"unsupported plan node {type(node).__name__}")

        if not charge:
            work = 0.0
        node.actual_rows = len(result)
        own_work = work - sum(
            metrics[child.node_id].work
            for child in node.children()
            if child.node_id in metrics
        )
        own_work = max(0.0, own_work)
        # The node may be a cached plan's, shared with other sessions whose
        # rounds reset it at any time: the metrics take the local value.
        node.actual_work = own_work
        metrics[node.node_id] = NodeMetrics(
            node_id=node.node_id,
            label=node.label(),
            estimated_rows=node.estimated_rows,
            actual_rows=len(result),
            work=work,
            own_work=own_work,
            batches=batch_count(len(result)),
            build_rows=build_rows,
            probe_rows=probe_rows,
            partitions_scanned=observed.get("partitions_scanned"),
            partitions_pruned=observed.get("partitions_pruned"),
            segments_skipped=observed.get("segments_skipped"),
            columns_decoded=observed.get("columns_decoded"),
        )
        if memo is not None:
            memo.results[node.node_id] = result
            for child in node.children():
                memo.release(child.node_id)
        return result, work

    # -- operators ----------------------------------------------------------------

    def _execute_scan(
        self, node: ScanNode, observed: Dict[str, int]
    ) -> Tuple[ResultSet, float]:
        index_column = None
        index_filter = None
        if node.access_path is AccessPath.INDEX_SCAN:
            index_column = node.index_column
            index_filter = node.index_filter
        pruned_partitions: Optional[Tuple[int, ...]] = None
        partitioned = self._catalog.schema(node.table).partition_spec is not None
        if node.access_path is AccessPath.SEQ_SCAN and partitioned:
            # Pruning is re-derived here, not read off the plan: table loads
            # do not invalidate cached plans, so the plan-time set can be
            # stale.  Because this one scheduler drives every engine, the
            # execution-time set is engine-invariant automatically.
            pruned_partitions, total = prune_partitions(
                self._catalog.table(node.table), list(node.filters)
            )
            observed["partitions_scanned"] = total - len(pruned_partitions)
            observed["partitions_pruned"] = len(pruned_partitions)
        result, rows_fetched = self._ops.scan_table(
            self._catalog,
            node.alias,
            node.table,
            list(node.filters),
            index_column=index_column,
            index_filter=index_filter,
            # An unpartitioned scan reports no partition, segment or decode
            # counters.
            observed=observed if partitioned else None,
            pruned_partitions=pruned_partitions,
            columns=node.columns,
        )
        if node.access_path is AccessPath.SEQ_SCAN:
            # ``rows_fetched`` is the storage rows the scan actually read:
            # the full table normally, the unpruned partitions' rows for a
            # partitioned table — pruning shrinks the charged CPU term.
            work = self.cost_model.seq_scan_cost(
                node.table, rows_fetched, len(node.filters)
            )
        else:
            residual = max(0, len(node.filters) - 1)
            work = self.cost_model.index_scan_cost(node.table, rows_fetched, residual)
        return result, work

    def _execute_join(
        self,
        node: JoinNode,
        metrics: Dict[int, NodeMetrics],
        memo: Optional[_StageMemo] = None,
        observed: Optional[Dict[str, int]] = None,
    ) -> Tuple[ResultSet, float, int, int]:
        index_probed = node.algorithm is JoinAlgorithm.INDEX_NESTED_LOOP
        outer_result, outer_work = self._execute_node(node.left, metrics, memo=memo)
        # An index-probed inner still scans, uncharged: its actual rows are
        # what the re-optimization loops and the feedback harvest observe.
        inner_result, inner_work = self._execute_node(
            node.right, metrics, charge=not index_probed, memo=memo
        )
        if observed is None:
            observed = {}
        if index_probed:
            joined, index_matches = self._ops.index_join_results(
                outer_result,
                inner_result,
                self._index_probe_order(node),
                self._catalog,
                node.right.table,
                observed=observed,
            )
        elif node.join_predicates:
            joined = self._ops.join_results(
                outer_result,
                inner_result,
                list(node.join_predicates),
                observed=observed,
            )
        else:
            # Residual-only join: filtered cross product (nested-loop costed).
            joined = self._ops.cross_join_results(
                outer_result, inner_result, observed=observed
            )
        if node.residual_filters:
            joined = self._ops.filter_result(joined, list(node.residual_filters))

        outer_rows = len(outer_result)
        inner_rows = len(inner_result)
        output_rows = len(joined)
        if node.algorithm is JoinAlgorithm.HASH_JOIN:
            own = self.cost_model.hash_join_cost(outer_rows, inner_rows, output_rows)
        elif node.algorithm is JoinAlgorithm.NESTED_LOOP:
            own = self.cost_model.nested_loop_cost(outer_rows, inner_rows, output_rows)
        elif index_probed:
            # Probes pay one index lookup per outer row; every index match is
            # fetched and residual-filtered even if it does not survive.
            own = self.cost_model.index_nested_loop_cost(
                outer_rows, max(index_matches, output_rows), len(node.right.filters)
            )
        else:  # pragma: no cover - enum is exhaustive
            raise ExecutionError(f"unknown join algorithm {node.algorithm}")
        return (
            joined,
            outer_work + inner_work + own,
            observed.get("build_rows", inner_rows),
            observed.get("probe_rows", outer_rows),
        )

    def _index_probe_order(self, node: JoinNode) -> List[BoundJoin]:
        """An index nested loop's join predicates, the one it probes first.

        The probed predicate is the first whose column on the inner base
        table carries an index.
        """
        inner = node.right
        if not isinstance(inner, ScanNode):
            raise ExecutionError(
                "index nested loop plans must have a base-table scan as inner child"
            )
        indexes = self._catalog.indexes(inner.table)
        joins = list(node.join_predicates)
        for i, join in enumerate(joins):
            if join.column_for(inner.alias) in indexes:
                return [joins.pop(i)] + joins
        raise ExecutionError("index nested loop join has no indexed join predicate")
