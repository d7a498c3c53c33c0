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

Alias sets are :class:`~repro.optimizer.joingraph.JoinGraph` bitmasks (bit
``i`` = ``i``-th alias in sorted order).  The dynamic program walks only the
connected subsets, grown level by level from the graph's neighbourhoods
(:meth:`JoinGraph.connected_levels`) instead of testing all 2^n, and splits
each from its mask in the historical order, so candidates, tie-breaks and
counters are those of a plain subset enumeration.

All strategies share the candidate costing in :meth:`_cheapest_join`, which
considers hash join, nested loop, index nested loop (when the inner is a
base table with an index on the join key) and merge join in both
orientations, costed with the shared :class:`~repro.optimizer.cost.CostModel`
(the hash and nested-loop formulas inlined, same float evaluation order).
Candidates are compared as plain cost floats; a :class:`JoinNode` is built
only for the cheapest join of each alias subset the search keeps.

``candidates_considered`` is charged as simulated planning time, so work
the search skips by reuse — the greedy ordering's pairs re-costed in every
round — is still charged as if recomputed: only the recomputation goes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Tuple

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
    """

    bushy_limit: int = 7
    dp_limit: int = 10


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
        #: Cheapest plan of each alias mask planned so far.
        self._best: Dict[int, PlanNode] = {}
        #: Per base-table alias bit: the aliases it can be index-probed from
        #: (the other side of a join whose column on this side is indexed).
        self._index_partners: Dict[int, int] = dict.fromkeys(self.graph.adjacent, 0)
        for join, left, right in self.graph.joins:
            if join.left_column in catalog.indexes(query.table_for(join.left_alias)):
                self._index_partners[left] |= right
            if join.right_column in catalog.indexes(query.table_for(join.right_alias)):
                self._index_partners[right] |= left

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
            self._best[self.graph.bits[alias]] = self._best_scan(alias)
        num_tables = len(self.query.aliases)
        if num_tables == 1:
            best = self._best[self.graph.full]
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
        if storage.schema.partition_spec is not None:
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

    def _cheapest_join(
        self,
        left: int,
        right: int,
        output_rows: float,
        best: Optional[_JoinChoice] = None,
    ) -> Optional[_JoinChoice]:
        """Cost every physical join of two planned alias masks against the incumbent.

        Candidates are costed as plain floats, both orientations, in a fixed
        order (hash, nested loop, merge, index nested loop); a candidate
        replaces ``best`` only when strictly cheaper, so the first of equally
        cheap candidates wins.  Returns the surviving choice — ``best`` itself
        when nothing here beats it — from which :meth:`_make_join` builds the
        one :class:`JoinNode` a subset keeps.

        A residual join filter is attached to the join whose alias set first
        covers every alias it references and neither child does on its own,
        so each applies exactly once along any plan tree.  A pair without join
        keys still gets a candidate when a residual links it: one it covers,
        or one spanning 3+ tables that applies further up (the pair needs a
        plain cross product for the enumeration to reach the covering join).
        """
        joins = self.graph.joins_between(left, right)
        residuals: Tuple[Expr, ...] = ()
        if self.graph.residuals:
            union = left | right
            residuals = tuple(
                residual
                for residual, aliases in self.graph.residuals
                if not aliases & ~union and aliases & ~left and aliases & ~right
            )
        if not joins and not any(
            aliases & left and aliases & right for _, aliases in self.graph.residuals
        ):
            return best
        best_cost = best[0] if best is not None else None
        model = self.cost_model
        operator_cost = model.params.cpu_operator_cost
        build_factor = model.params.hash_build_factor
        emit = output_rows * model.params.cpu_tuple_cost
        candidates = 0
        for outer_mask, inner_mask in ((left, right), (right, left)):
            outer = self._best[outer_mask]
            inner = self._best[inner_mask]
            outer_rows = outer.estimated_rows
            inner_rows = inner.estimated_rows
            base_cost = outer.estimated_cost + inner.estimated_cost
            # Each candidate is compared as soon as it is costed.  Hash and
            # nested loop are CostModel.hash_join_cost / .nested_loop_cost
            # inlined term by term.  Without equi-join keys the only option is
            # a (possibly filtered) cross product, costed as a nested loop.
            if joins:
                candidates += 1
                cost = base_cost + (
                    inner_rows * operator_cost * build_factor + outer_rows * operator_cost + emit
                )
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best = (cost, outer, inner, JoinAlgorithm.HASH_JOIN, joins, residuals)
            candidates += 1
            cost = base_cost + (outer_rows * inner_rows * operator_cost + emit)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best = (cost, outer, inner, JoinAlgorithm.NESTED_LOOP, joins, residuals)
            if joins:
                candidates += 1
                cost = base_cost + model.merge_join_cost(outer_rows, inner_rows, output_rows)
                if cost < best_cost:
                    best_cost = cost
                    best = (cost, outer, inner, JoinAlgorithm.MERGE_JOIN, joins, residuals)
            if joins and self._index_partners.get(inner_mask, 0) & outer_mask:
                # The inner base table is probed through its index, so its
                # own scan cost is not paid; only the outer subtree cost is.
                candidates += 1
                cost = outer.estimated_cost + model.index_nested_loop_cost(
                    outer_rows, output_rows, len(inner.filters)
                )
                if cost < best_cost:
                    best_cost = cost
                    best = (cost, outer, inner, JoinAlgorithm.INDEX_NESTED_LOOP, joins, residuals)
        self.candidates_considered += candidates
        return best

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
        """Plan every connected subset, smallest first, from its cheapest split.

        Subsets come from :meth:`JoinGraph.connected_levels`, in the order
        ``combinations(query.aliases, size)`` lists them, so the estimator
        (and through it every injector and strategy) is asked in that order.
        """
        levels = self.graph.connected_levels()
        next(levels)  # single tables: planned by _best_scan
        for level in levels:
            for subset in level:
                output_rows = self.estimator.cardinality(subset)
                best: Optional[_JoinChoice] = None
                for left, right in self._splits(subset, bushy):
                    best = self._cheapest_join(left, right, output_rows, best)
                self._best[subset] = self._make_join(best, output_rows)
        return self._best[self.graph.full]

    def _splits(self, subset: int, bushy: bool) -> Iterator[Tuple[int, int]]:
        """Connected, join-linked binary splits of a connected ``subset``.

        Bushy: every left side holding the lowest alias, by size, then in
        ``combinations`` order of the other aliases.  Linear (and any pair):
        ``(subset - alias, alias)`` for each alias, ascending.  A side is
        connected iff ``_best`` plans it: by the time a subset is split, every
        smaller connected subset has been planned.
        """
        planned = self._best
        members = self.graph.bits_of(subset)
        if bushy and len(members) > 2:
            neighbours = self.graph.neighbours
            anchor = members[0]
            others = members[1:]
            for size in range(len(others)):
                for combo in combinations(others, size):
                    left = anchor + sum(combo)
                    right = subset ^ left
                    if left in planned and right in planned and neighbours(left) & right:
                        yield left, right
        else:
            adjacent = self.graph.adjacent
            for alias in members:
                rest = subset ^ alias
                if rest in planned and adjacent[alias] & rest:
                    yield rest, alias

    # -- greedy operator ordering ---------------------------------------------------------

    def _greedy_operator_ordering(self) -> PlanNode:
        """Repeatedly join the connected pair of components with the fewest rows.

        A pair's sub-plans and estimate never change while both components
        survive, so its costed choice is computed once and reused in later
        rounds — charging its candidates again each round, as if recomputed,
        because ``candidates_considered`` is simulated planning time.
        """
        graph = self.graph
        components = graph.bits_of(graph.full)
        choices: Dict[Tuple[int, int], Tuple[Optional[_JoinChoice], int]] = {}
        while len(components) > 1:
            best_pair: Optional[Tuple[int, int]] = None
            best_choice: Optional[_JoinChoice] = None
            best_rows = float("inf")
            # Disjoint components order by their lowest alias as they would
            # by their sorted alias tuples.
            components.sort(key=lambda mask: mask & -mask)
            reach = {mask: graph.neighbours(mask) for mask in components}
            for pair in combinations(components, 2):
                left, right = pair
                if not reach[left] & right:
                    continue
                output_rows = self.estimator.cardinality(left | right)
                if pair in choices:
                    self.candidates_considered += choices[pair][1]
                else:
                    before = self.candidates_considered
                    choice = self._cheapest_join(left, right, output_rows)
                    choices[pair] = (choice, self.candidates_considered - before)
                cheapest = choices[pair][0]
                if cheapest is None:
                    continue
                if output_rows < best_rows or (
                    output_rows == best_rows
                    and best_choice is not None
                    and cheapest[0] < best_choice[0]
                ):
                    best_rows = output_rows
                    best_pair = pair
                    best_choice = cheapest
            left, right = best_pair
            components.remove(left)
            components.remove(right)
            components.append(left | right)
            self._best[left | right] = self._make_join(best_choice, best_rows)
        return self._best[components[0]]

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
