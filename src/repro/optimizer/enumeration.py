"""Plan enumeration: access-path selection and join ordering.

Three strategies, mirroring how PostgreSQL scales its search with query size:

* **Bushy dynamic programming** for small queries: all connected splits of
  every connected alias subset are considered (System-R style extended with
  bushy trees, no Cartesian products).
* **Linear dynamic programming** for medium queries: subsets are only
  extended one relation at a time (left-deep / zig-zag trees), which keeps
  the search polynomial in the number of connected subsets.
* **Greedy operator ordering** for large queries (the stand-in for GEQO):
  repeatedly join the pair of components with the smallest estimated output.

All strategies share the candidate costing in :meth:`_cheapest_join`, which
considers hash join, nested loop, index nested loop (when the inner is a
base table with an index on the join key) and merge join in both
orientations, costed with the shared :class:`~repro.optimizer.cost.CostModel`.
Candidates are compared as plain cost floats; a :class:`JoinNode` is built
only for the cheapest join of each alias subset the search keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.schema import ColumnType
from repro.errors import PlanningError
from repro.optimizer.cardinality import CardinalityEstimator
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
from repro.optimizer.pruning import prune_partitions
from repro.sql.ast import (
    AggregateFunc,
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    InList,
    Literal,
)
from repro.sql.binder import BoundJoin, BoundQuery
from repro.sql.builder import scan_referenced_columns
from repro.storage.partition import PartitionedTable

AliasSet = FrozenSet[str]

#: A costed join the enumerator has not built yet:
#: ``(cost, outer, inner, algorithm, join_predicates, residual_filters)``.
_JoinChoice = Tuple[
    float, PlanNode, PlanNode, JoinAlgorithm, Tuple[BoundJoin, ...], Tuple[Expr, ...]
]


@dataclass
class PlannerConfig:
    """Knobs controlling the search strategy.

    Attributes:
        bushy_limit: queries with at most this many tables get full bushy DP.
        dp_limit: queries with at most this many tables get linear DP;
            larger queries fall back to greedy operator ordering.
        enable_nested_loop: whether plain nested-loop joins are considered.
        enable_index_nested_loop: whether index nested-loop joins are considered.
        enable_merge_join: whether merge joins are considered.
    """

    bushy_limit: int = 7
    dp_limit: int = 10
    enable_nested_loop: bool = True
    enable_index_nested_loop: bool = True
    enable_merge_join: bool = True


class JoinEnumerator:
    """Builds the cheapest physical plan for one bound query."""

    def __init__(
        self,
        catalog: Catalog,
        query: BoundQuery,
        estimator: CardinalityEstimator,
        cost_model: CostModel,
        config: Optional[PlannerConfig] = None,
    ) -> None:
        self._catalog = catalog
        self.query = query
        self.estimator = estimator
        self.cost_model = cost_model
        self.config = config or PlannerConfig()
        self.graph = estimator.graph
        self.candidates_considered = 0
        self._best: Dict[AliasSet, PlanNode] = {}

    # -- public API ------------------------------------------------------------

    def plan(self) -> PlanNode:
        """Return the cheapest plan found, wrapped in the result-shaping nodes.

        The join tree is topped by an aggregation/projection node
        (:class:`HashAggregateNode` when grouped, :class:`AggregateNode`
        otherwise) and, as the query requires, ``Distinct``, ``Sort`` and
        ``Limit`` nodes — in that order, so ``LIMIT`` applies to the sorted,
        de-duplicated output.
        """
        if not self.query.aliases:
            raise PlanningError("query has no FROM-clause tables")
        components = self.graph.connected_components()
        if len(components) > 1:
            raise PlanningError(
                "query join graph is disconnected; Cartesian products are not "
                f"supported (components: {[sorted(c) for c in components]})"
            )
        for alias in self.query.aliases:
            self._best[frozenset((alias,))] = self._best_scan(alias)
        num_tables = len(self.query.aliases)
        if num_tables == 1:
            best = self._best[frozenset(self.query.aliases)]
        elif num_tables <= self.config.dp_limit:
            best = self._dynamic_programming(
                bushy=num_tables <= self.config.bushy_limit
            )
        else:
            best = self._greedy_operator_ordering()
        return self._finalize(best)

    # -- scan candidates ---------------------------------------------------------

    def _best_scan(self, alias: str) -> ScanNode:
        """Pick the cheaper of a sequential scan and an index scan for ``alias``."""
        table = self.query.table_for(alias)
        filters = tuple(self.query.filters_for(alias))
        output_rows = self.estimator.scan_cardinality(alias)
        table_rows = self.estimator.selectivity.table_rows(table)

        # Partition pruning: shards whose zone maps refute the filters are
        # dropped from the scan, shrinking the CPU term of the seq-scan cost.
        storage = self._catalog.table(table)
        partitions_total: Optional[int] = None
        pruned: Tuple[int, ...] = ()
        scanned_rows = table_rows
        if isinstance(storage, PartitionedTable):
            pruned, partitions_total = prune_partitions(storage, filters)
            scanned_rows = min(table_rows, float(storage.scanned_rows(pruned)))

        # Projection pushdown: the engines gather/decode only the columns the
        # rest of the query references.  Full coverage keeps ``columns=None``
        # so the zero-copy full-width scan paths stay in effect.
        schema_names = storage.schema.column_names
        needed = scan_referenced_columns(self.query, alias)
        scan_columns: Optional[Tuple[str, ...]] = None
        if needed is not None:
            # The adaptive re-planner's handover fallback exposes the
            # table's *first schema column* when nothing above a collapsed
            # sub-join references it; keep that column materialized so a
            # mid-query re-plan always finds it (this also keeps every
            # scan at least one column wide).
            wanted = set(needed)
            wanted.add(schema_names[0])
            if len(wanted) < len(schema_names):
                scan_columns = tuple(
                    name for name in schema_names if name in wanted
                )

        seq = ScanNode(
            alias=alias,
            table=table,
            filters=filters,
            access_path=AccessPath.SEQ_SCAN,
            partitions_total=partitions_total,
            pruned_partitions=pruned,
            columns=scan_columns,
            columns_total=len(schema_names),
        )
        seq.estimated_rows = output_rows
        seq.estimated_cost = self.cost_model.seq_scan_cost(
            table, scanned_rows, len(filters)
        )
        self.candidates_considered += 1
        best: ScanNode = seq

        index_filter = self._indexable_filter(table, filters)
        if index_filter is not None:
            predicate, column = index_filter
            matching = table_rows * self.estimator.filter_selectivity(alias, predicate)
            index = ScanNode(
                alias=alias,
                table=table,
                filters=filters,
                access_path=AccessPath.INDEX_SCAN,
                index_column=column,
                index_filter=predicate,
                columns=scan_columns,
                columns_total=len(schema_names),
            )
            index.estimated_rows = output_rows
            index.estimated_cost = self.cost_model.index_scan_cost(
                table, matching, max(0, len(filters) - 1)
            )
            self.candidates_considered += 1
            if index.estimated_cost < best.estimated_cost:
                best = index
        return best

    def _indexable_filter(
        self, table: str, filters: Tuple[Expr, ...]
    ) -> Optional[Tuple[Expr, str]]:
        """Find an equality/IN filter over an indexed column, if any.

        Only the shapes :func:`repro.executor.expressions.index_probe_keys`
        can extract probe keys from qualify: ``column = literal`` (either
        orientation) and ``column IN (literals)``.
        """
        indexes = self._catalog.indexes(table)
        for predicate in filters:
            if isinstance(predicate, Comparison) and (
                predicate.op is ComparisonOp.EQ
            ):
                for column_side, value_side in (
                    (predicate.left, predicate.right),
                    (predicate.right, predicate.left),
                ):
                    if (
                        isinstance(column_side, Column)
                        and isinstance(value_side, Literal)
                        and column_side.column in indexes
                    ):
                        return predicate, column_side.column
            elif isinstance(predicate, InList) and not predicate.negated:
                if (
                    isinstance(predicate.operand, Column)
                    and all(isinstance(item, Literal) for item in predicate.items)
                    and predicate.operand.column in indexes
                ):
                    return predicate, predicate.operand.column
        return None

    # -- join candidates -----------------------------------------------------------

    def _bridges_residual(self, left: PlanNode, right: PlanNode) -> bool:
        """Whether a residual spanning 3+ tables connects these sub-plans.

        Such a residual makes the pair graph-connected without giving this
        join anything to evaluate yet (it only applies once *all* its
        aliases are covered), so the pair still needs a plain cross-product
        candidate for the enumeration to reach the covering join.
        """
        for residual in self.query.residuals:
            aliases = set(residual.referenced_aliases())
            if aliases & left.aliases and aliases & right.aliases:
                return True
        return False

    def _residuals_for(self, left: PlanNode, right: PlanNode) -> Tuple[Expr, ...]:
        """Residual join filters first covered by joining ``left`` and ``right``.

        A residual is attached to the join node whose alias set first covers
        every alias it references and neither child does on its own, so each
        residual is applied exactly once along any plan tree.
        """
        union = left.aliases | right.aliases
        residuals = []
        for residual in self.query.residuals:
            aliases = set(residual.referenced_aliases())
            if (
                aliases <= union
                and not aliases <= left.aliases
                and not aliases <= right.aliases
            ):
                residuals.append(residual)
        return tuple(residuals)

    def _cheapest_join(
        self,
        left: PlanNode,
        right: PlanNode,
        output_rows: float,
        best: Optional[_JoinChoice] = None,
    ) -> Optional[_JoinChoice]:
        """Cost every physical join of two sub-plans against the incumbent.

        Candidates are costed as plain floats, both orientations, in a fixed
        order (hash, nested loop, merge, index nested loop); a candidate
        replaces ``best`` only when strictly cheaper, so the first of equally
        cheap candidates wins.  Returns the surviving choice — ``best`` itself
        when nothing here beats it — from which :meth:`_make_join` builds the
        one :class:`JoinNode` a subset keeps.
        """
        joins = tuple(self.graph.joins_between_sets(left.aliases, right.aliases))
        residuals = self._residuals_for(left, right)
        if not joins and not residuals and not self._bridges_residual(left, right):
            return best
        best_cost = best[0] if best is not None else None
        model = self.cost_model
        config = self.config
        for outer, inner in ((left, right), (right, left)):
            outer_rows = outer.estimated_rows
            inner_rows = inner.estimated_rows
            base_cost = outer.estimated_cost + inner.estimated_cost
            nested_loop = (
                JoinAlgorithm.NESTED_LOOP,
                base_cost + model.nested_loop_cost(outer_rows, inner_rows, output_rows),
            )
            if not joins:
                # No equi-join keys: the only physical option is a (possibly
                # filtered) cross product, costed as a nested loop.  A pair
                # bridging a wider residual gets a plain cross product here;
                # the residual itself applies at the join that first covers it.
                costed = [nested_loop]
            else:
                costed = [
                    (
                        JoinAlgorithm.HASH_JOIN,
                        base_cost
                        + model.hash_join_cost(outer_rows, inner_rows, output_rows),
                    )
                ]
                if config.enable_nested_loop:
                    costed.append(nested_loop)
                if config.enable_merge_join:
                    costed.append(
                        (
                            JoinAlgorithm.MERGE_JOIN,
                            base_cost
                            + model.merge_join_cost(outer_rows, inner_rows, output_rows),
                        )
                    )
                if (
                    config.enable_index_nested_loop
                    and self._index_nested_loop_column(inner, joins) is not None
                ):
                    # The inner side is probed through its index, so its own
                    # scan cost is not paid; only the outer subtree cost is.
                    costed.append(
                        (
                            JoinAlgorithm.INDEX_NESTED_LOOP,
                            outer.estimated_cost
                            + model.index_nested_loop_cost(
                                outer_rows,
                                output_rows,
                                len(inner.filters) if isinstance(inner, ScanNode) else 0,
                            ),
                        )
                    )
            self.candidates_considered += len(costed)
            for algorithm, cost in costed:
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best = (cost, outer, inner, algorithm, joins, residuals)
        return best

    def _index_nested_loop_column(
        self, inner: PlanNode, joins
    ) -> Optional[str]:
        """Column of the inner base table usable for index-nested-loop probing."""
        if not isinstance(inner, ScanNode):
            return None
        indexes = self._catalog.indexes(inner.table)
        for join in joins:
            if join.touches(inner.alias):
                column = join.column_for(inner.alias)
                if column in indexes:
                    return column
        return None

    @staticmethod
    def _make_join(choice: _JoinChoice, output_rows: float) -> JoinNode:
        cost, outer, inner, algorithm, joins, residuals = choice
        node = JoinNode(
            left=outer,
            right=inner,
            join_predicates=joins,
            algorithm=algorithm,
            residual_filters=residuals,
        )
        node.estimated_rows = output_rows
        node.estimated_cost = cost
        return node

    # -- dynamic programming ----------------------------------------------------------

    def _dynamic_programming(self, bushy: bool) -> PlanNode:
        aliases = list(self.query.aliases)
        total = len(aliases)
        for size in range(2, total + 1):
            for combo in combinations(aliases, size):
                subset = frozenset(combo)
                splits = self._splits(subset, bushy)
                if not splits:
                    continue  # not a connected subset
                output_rows = self.estimator.subset_cardinality(subset)
                best: Optional[_JoinChoice] = None
                for left_set, right_set in splits:
                    best = self._cheapest_join(
                        self._best[left_set], self._best[right_set], output_rows, best
                    )
                if best is not None:
                    self._best[subset] = self._make_join(best, output_rows)
        full = frozenset(aliases)
        if full not in self._best:
            raise PlanningError(
                f"no connected plan covers all tables of query {self.query.name!r}"
            )
        return self._best[full]

    def _splits(
        self, subset: AliasSet, bushy: bool
    ) -> List[Tuple[AliasSet, AliasSet]]:
        """Connected, join-linked binary splits of ``subset``.

        Connectivity is read off the DP table instead of walking the join
        graph: ``_best`` holds exactly the connected subsets of every smaller
        size by the time the splits of this one are asked for (two planned
        sides with a join edge between them always yield a candidate), so a
        side is connected iff it has an entry, and ``subset`` itself is
        connected iff it has a split.
        """
        planned = self._best
        splits: List[Tuple[AliasSet, AliasSet]] = []
        if bushy and len(subset) > 2:
            members = sorted(subset)
            anchor = members[0]
            others = members[1:]
            for r in range(0, len(others)):
                for combo in combinations(others, r):
                    left = frozenset((anchor,) + combo)
                    if left not in planned:
                        continue
                    right = subset - left
                    if right not in planned:
                        continue
                    if not self.graph.connects(left, right):
                        continue
                    splits.append((left, right))
        else:
            for alias in sorted(subset):
                rest = subset - {alias}
                if rest not in planned:
                    continue
                if not self.graph.connects(rest, {alias}):
                    continue
                splits.append((rest, frozenset((alias,))))
        return splits

    # -- greedy operator ordering ---------------------------------------------------------

    def _greedy_operator_ordering(self) -> PlanNode:
        components: Dict[AliasSet, PlanNode] = {
            frozenset((alias,)): self._best[frozenset((alias,))]
            for alias in self.query.aliases
        }
        while len(components) > 1:
            best_pair: Optional[Tuple[AliasSet, AliasSet]] = None
            best_choice: Optional[_JoinChoice] = None
            best_rows = float("inf")
            keys = sorted(components, key=lambda s: tuple(sorted(s)))
            for left_set, right_set in combinations(keys, 2):
                if not self.graph.connects(left_set, right_set):
                    continue
                union = left_set | right_set
                output_rows = self.estimator.subset_cardinality(union)
                cheapest = self._cheapest_join(
                    components[left_set], components[right_set], output_rows
                )
                if cheapest is None:
                    continue
                if output_rows < best_rows or (
                    output_rows == best_rows
                    and best_choice is not None
                    and cheapest[0] < best_choice[0]
                ):
                    best_rows = output_rows
                    best_pair = (left_set, right_set)
                    best_choice = cheapest
            if best_pair is None or best_choice is None:
                raise PlanningError(
                    f"greedy ordering could not connect query {self.query.name!r}"
                )
            left_set, right_set = best_pair
            del components[left_set]
            del components[right_set]
            components[left_set | right_set] = self._make_join(best_choice, best_rows)
        return next(iter(components.values()))

    # -- finalization -------------------------------------------------------------------

    def _finalize(self, best: PlanNode) -> PlanNode:
        query = self.query
        num_outputs = max(1, len(query.select_items))
        # The binder rejects SUM/AVG over text for SQL statements; repeat the
        # check here so hand-built queries cannot reach the executors, where
        # the engines would diverge (concatenation vs TypeError).
        for item in query.select_items:
            if item.aggregate not in (AggregateFunc.SUM, AggregateFunc.AVG):
                continue
            if item.expr is None:  # only COUNT may take '*'
                raise PlanningError(
                    f"{item.aggregate.value.upper()}(*) is not defined"
                )
            if item.column is None:
                # Computed expressions were type-checked by the binder; a
                # hand-built text-typed expression would still be rejected
                # below by its bare column references, if any.
                continue
            table = query.table_for(item.column.alias)
            schema = self._catalog.schema(table)
            if schema.has_column(item.column.column):
                col_type = schema.column(item.column.column).col_type
                if col_type is ColumnType.TEXT:
                    raise PlanningError(
                        f"{item.aggregate.value.upper()}({item.column}) is not "
                        f"defined for text column {table}.{item.column.column}"
                    )
        # Sort keys referencing base-table columns (alias set) sort the join
        # result *below* the projection, so non-projected columns are still
        # available; output-column keys (alias "") sort above it.  The binder
        # always emits homogeneous keys; hand-built queries mixing the two
        # forms have no single valid sort position, so reject them here
        # instead of failing inside an executor column lookup.
        has_base_keys = any(key.alias for key in query.order_by)
        has_output_keys = any(not key.alias for key in query.order_by)
        if has_base_keys and has_output_keys:
            raise PlanningError(
                "ORDER BY keys must either all reference output columns or "
                f"all reference base-table columns, query {query.name!r} mixes both"
            )
        if has_output_keys and not query.select_items:
            raise PlanningError(
                "ORDER BY output-column keys require an explicit select list, "
                f"query {query.name!r} selects *"
            )
        if has_base_keys and query.group_by:
            raise PlanningError(
                "grouped queries can only ORDER BY output columns, query "
                f"{query.name!r} sorts on base-table columns"
            )
        if query.distinct and has_base_keys and query.select_items:
            raise PlanningError(
                "SELECT DISTINCT can only ORDER BY projected columns, query "
                f"{query.name!r} sorts on non-projected base-table columns"
            )
        if has_base_keys and self._has_aggregate():
            raise PlanningError(
                "aggregate queries can only ORDER BY output columns, query "
                f"{query.name!r} sorts on base-table columns"
            )
        if query.limit is None and query.offset:
            # The grammar ties OFFSET to LIMIT; a hand-built query with only
            # an offset would otherwise be silently ignored.
            raise PlanningError(
                f"OFFSET requires a LIMIT, query {query.name!r} has none"
            )
        if query.constant_filters:
            # Bind-time folded constant predicates: EXPLAIN shows them as a
            # one-time filter; a false one prunes the whole subtree (the
            # executor returns an empty result without running the child).
            passes = not query.always_false
            wrapped = OneTimeFilterNode(
                child=best,
                conditions=tuple(c.expr for c in query.constant_filters),
                passes=passes,
            )
            wrapped.estimated_rows = best.estimated_rows if passes else 0.0
            wrapped.estimated_cost = best.estimated_cost if passes else 0.0
            best = wrapped
        sort_below = bool(query.order_by) and query.select_items and has_base_keys
        if sort_below:
            best = self._sort_node(best, below=True)
        root: PlanNode
        if query.group_by:
            groups = self._group_count_estimate(best.estimated_rows, query.group_by)
            root = HashAggregateNode(
                child=best,
                group_keys=tuple(query.group_by),
                select_items=tuple(query.select_items),
            )
            root.estimated_rows = groups
            root.estimated_cost = best.estimated_cost + self.cost_model.hash_aggregate_cost(
                best.estimated_rows, groups, num_outputs
            )
        else:
            root = AggregateNode(child=best, select_items=tuple(query.select_items))
            root.estimated_rows = 1.0 if self._has_aggregate() else best.estimated_rows
            root.estimated_cost = best.estimated_cost + self.cost_model.aggregate_cost(
                best.estimated_rows, num_outputs
            )
        if query.distinct:
            child = root
            root = DistinctNode(child=child)
            root.estimated_rows = self._distinct_estimate(child.estimated_rows)
            root.estimated_cost = child.estimated_cost + self.cost_model.distinct_cost(
                child.estimated_rows, root.estimated_rows
            )
        if query.order_by and not sort_below:
            root = self._sort_node(root)
        if query.limit is not None:
            child = root
            root = LimitNode(child=child, limit=query.limit, offset=query.offset or 0)
            surviving = max(
                0.0, min(float(query.limit), child.estimated_rows - (query.offset or 0))
            )
            root.estimated_rows = surviving
            root.estimated_cost = child.estimated_cost + self.cost_model.limit_cost(
                surviving
            )
        return root

    def _sort_node(self, child: PlanNode, below: bool = False) -> SortNode:
        """Wrap ``child`` in a Sort over the query's keys (rows preserved).

        ``below`` marks the sort placed *under* the projection (base-table
        keys with a select list); the root sort leaves it False.
        """
        tie_break, tie_break_all = self._limit_tie_break(below)
        node = SortNode(
            child=child,
            keys=tuple(self.query.order_by),
            tie_break=tie_break,
            tie_break_all=tie_break_all,
        )
        node.estimated_rows = child.estimated_rows
        node.estimated_cost = child.estimated_cost + self.cost_model.sort_cost(
            child.estimated_rows, len(self.query.order_by)
        )
        return node

    def _limit_tie_break(self, below: bool) -> Tuple[Tuple[Expr, ...], bool]:
        """Deterministic tie-break columns for a sort feeding a LIMIT cut.

        Without a LIMIT no tie-break is needed: every row is returned, and
        ties are allowed to keep plan order (the differential suites compare
        limit-less ordered results as multisets across plans).  Under a
        LIMIT the cut turns tie order into a correctness question, so the
        sort gets a total order over the *projected* output:

        * ``SELECT *``: one tie expression per table column, name-resolved,
          in FROM-clause declaration order then schema order.  The star sort
          input's positional column order is join-order dependent, so
          positional ties would not survive a re-optimization rewrite;
          name-resolved expressions do (a collapsed temp table exposes the
          same values under the handover mapping, in the same declaration
          order).
        * Sort below the projection (base-table keys): the select items'
          expressions, evaluated over the sort input.  Rewrites remap these
          expressions together with the select list, so the tie values are
          rewrite-invariant.
        * Sort above the projection (output keys): every output column,
          positionally (``tie_break_all``) — above the projection the input
          *is* the projected output in select-item order, which no rewrite
          changes.  Output names can collide (``SELECT g.id, r.id``), so
          positional beats name-resolved here.
        """
        query = self.query
        if query.limit is None:
            return (), False
        if not query.select_items:
            exprs: List[Expr] = []
            for alias in query.aliases:
                table = query.alias_tables[alias]
                for name in self._catalog.schema(table).column_names:
                    exprs.append(Column(ColumnRef(alias=alias, column=name)))
            return tuple(exprs), False
        if below:
            return tuple(item.expr for item in query.select_items), False
        return (), True

    def _group_count_estimate(self, input_rows: float, group_keys) -> float:
        distincts = [
            self.estimator.selectivity.column_n_distinct(
                self.query.table_for(ref.alias), ref.column
            )
            for ref in group_keys
        ]
        return self.estimator.selectivity.group_count(input_rows, distincts)

    def _distinct_estimate(self, input_rows: float) -> float:
        """Distinct output rows: ndv product of the projected columns."""
        columns = [
            item.column
            for item in self.query.select_items
            if item.aggregate is None and item.column is not None
        ]
        if not columns or len(columns) != len(self.query.select_items):
            # SELECT * or aggregate outputs: no usable column statistics.
            return input_rows
        return self._group_count_estimate(input_rows, columns)

    def _has_aggregate(self) -> bool:
        return any(item.aggregate is not None for item in self.query.select_items)
