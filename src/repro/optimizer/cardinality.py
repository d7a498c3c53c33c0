"""Cardinality and selectivity estimation (PostgreSQL-style).

This module reproduces the estimation *model* the paper studies: per-column
statistics combined under independence and uniformity assumptions.

* Filter selectivities use MCV lists, equi-depth histograms and
  ``n_distinct``, multiplied together across predicates (independence across
  columns of the same table).
* Equi-join selectivity is ``1 / max(nd_left, nd_right)`` over the *base
  table* distinct counts (uniformity over join keys, independence between the
  join key distribution and any filters applied below) — exactly the
  assumptions that break on skewed, correlated data such as IMDB.
* Cardinalities of multi-table joins are built recursively from smaller
  subsets, so injected ("perfect") cardinalities for small subsets propagate
  into larger estimates just like the paper's perfect-(n) construct.

The :class:`CardinalityEstimator` also counts how many estimates it makes per
join size, which reproduces Table I of the paper.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.catalog.catalog import Catalog
from repro.errors import CardinalityError
from repro.optimizer.injection import CardinalityInjector
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.pruning import prune_partitions
from repro.sql.ast import (
    Between,
    BoolConnective,
    BoolExpr,
    Column,
    Comparison,
    ComparisonOp,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
)
from repro.sql.binder import BoundJoin, BoundQuery
from repro.sql.values import is_truthy
from repro.stats.column_stats import ColumnStats, TableStats

# Default selectivities used when statistics cannot answer a question,
# mirroring PostgreSQL's DEFAULT_EQ_SEL / DEFAULT_INEQ_SEL / pattern defaults.
DEFAULT_EQ_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.008
MIN_SELECTIVITY = 1.0e-7
MIN_ROWS = 1.0
#: PostgreSQL's get_variable_numdistinct fallback for columns without stats.
DEFAULT_N_DISTINCT = 200.0


def clamp_selectivity(value: float) -> float:
    """Clamp a selectivity into ``[MIN_SELECTIVITY, 1.0]``."""
    return max(MIN_SELECTIVITY, min(1.0, value))


def scan_upper_bound(
    catalog: Catalog, table: str, predicates: List[Expr]
) -> Optional[float]:
    """Hard upper bound on a filtered scan's output, or ``None`` if unbounded.

    For partitioned tables the zone maps give a *guaranteed* bound: the scan
    can never return more rows than the partitions surviving pruning hold.
    Unpartitioned tables (or scans without predicates) have no bound tighter
    than the table itself, so ``None`` is returned and callers fall back to
    the row count.
    """
    storage = catalog.table(table)
    if storage.schema.partition_spec is not None and predicates:
        pruned, _total = prune_partitions(storage, predicates)
        return float(storage.scanned_rows(pruned))
    return None


class SelectivityEstimator:
    """Estimates selectivities of single-table predicates from ANALYZE stats."""

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog

    # -- public API --------------------------------------------------------

    def table_stats(self, table: str) -> Optional[TableStats]:
        """ANALYZE statistics for ``table`` (``None`` before ANALYZE)."""
        return self._catalog.stats(table)

    def table_rows(self, table: str) -> float:
        """Row count of ``table`` (from statistics, falling back to storage)."""
        stats = self._catalog.stats(table)
        if stats is not None:
            return float(max(stats.row_count, 0))
        return float(self._catalog.table(table).row_count)

    def filter_selectivity(self, table: str, predicate: Expr) -> float:
        """Selectivity of one single-table filter expression against ``table``."""
        return self.expr_selectivity(predicate, lambda alias: table)

    def expr_selectivity(self, expr: Expr, table_of) -> float:
        """Boolean-tree selectivity of an arbitrary predicate expression.

        ``table_of`` maps a FROM-clause alias to its catalog table (for a
        single-table filter it is constant; for residual join filters the
        caller passes the bound query's mapping).  Connectives compose under
        the independence assumption — ``AND`` multiplies, ``OR`` is
        ``1 - prod(1 - s_i)``, ``NOT`` complements — and leaves consult the
        per-column statistics when the leaf has the classic
        ``column op constant`` shape; anything irregular (arithmetic over
        columns, cross-column comparisons, CASE) falls back to the
        PostgreSQL-style defaults.
        """
        if isinstance(expr, BoolExpr):
            if expr.op is BoolConnective.AND:
                selectivity = 1.0
                for operand in expr.operands:
                    selectivity *= self.expr_selectivity(operand, table_of)
                return clamp_selectivity(selectivity)
            miss = 1.0
            for operand in expr.operands:
                miss *= 1.0 - self.expr_selectivity(operand, table_of)
            return clamp_selectivity(1.0 - miss)
        if isinstance(expr, Not):
            return clamp_selectivity(
                1.0 - self.expr_selectivity(expr.operand, table_of)
            )
        if isinstance(expr, Literal):
            return 1.0 if is_truthy(expr.value) else MIN_SELECTIVITY
        return clamp_selectivity(self._leaf_selectivity(expr, table_of))

    def conjunction_selectivity(self, table: str, predicates: List[Expr]) -> float:
        """Selectivity of a conjunction of filters (independence assumption)."""
        selectivity = 1.0
        for predicate in predicates:
            selectivity *= self.filter_selectivity(table, predicate)
        return clamp_selectivity(selectivity)

    def scan_rows(self, table: str, predicates: List[Expr]) -> float:
        """Estimated output rows of scanning ``table`` with ``predicates``.

        For partitioned tables the zone maps supply a *hard* upper bound: a
        scan can never return more rows than the unpruned partitions hold,
        so the statistical estimate is clamped to that bound (tightening the
        Q-error the re-optimization triggers fire on).
        """
        rows = self.table_rows(table) * self.conjunction_selectivity(table, predicates)
        bound = scan_upper_bound(self._catalog, table, predicates)
        if bound is not None:
            rows = min(rows, bound)
        return max(MIN_ROWS, rows)

    def column_n_distinct(self, table: str, column: str) -> float:
        """Distinct count of one column (falls back like PostgreSQL's 200)."""
        stats = self._column_stats(table, column)
        if stats is not None and stats.n_distinct > 0:
            return float(stats.n_distinct)
        return min(DEFAULT_N_DISTINCT, max(MIN_ROWS, self.table_rows(table)))

    def group_count(self, input_rows: float, column_distincts: List[float]) -> float:
        """Estimated number of groups of a grouped aggregation.

        The product of per-key distinct counts under independence, clamped to
        the input cardinality (a group needs at least one input row).
        """
        if not column_distincts:
            return max(MIN_ROWS, min(input_rows, 1.0))
        product = 1.0
        for nd in column_distincts:
            product *= max(1.0, nd)
        return max(MIN_ROWS, min(input_rows, product))

    def join_predicate_selectivity(
        self, left_table: str, left_column: str, right_table: str, right_column: str
    ) -> float:
        """Selectivity of one equi-join predicate (``1 / max(nd_l, nd_r)``)."""
        left = self._column_stats(left_table, left_column)
        right = self._column_stats(right_table, right_column)
        nd_left = left.n_distinct if left is not None and left.n_distinct > 0 else None
        nd_right = (
            right.n_distinct if right is not None and right.n_distinct > 0 else None
        )
        if nd_left is None and nd_right is None:
            return DEFAULT_EQ_SELECTIVITY
        max_nd = max(nd for nd in (nd_left, nd_right) if nd is not None)
        selectivity = 1.0 / max_nd
        if left is not None:
            selectivity *= left.non_null_fraction
        if right is not None:
            selectivity *= right.non_null_fraction
        return clamp_selectivity(selectivity)

    # -- internals ----------------------------------------------------------

    def _column_stats(self, table: str, column: str) -> Optional[ColumnStats]:
        stats = self._catalog.stats(table)
        if stats is None:
            return None
        return stats.column_stats(column)

    def _leaf_stats(self, expr: Expr, table_of) -> Optional[ColumnStats]:
        """Column statistics for a leaf whose operand is a bare column."""
        operand = getattr(expr, "operand", None)
        if operand is None and isinstance(expr, Comparison):
            operand = expr.left if isinstance(expr.left, Column) else expr.right
        if not isinstance(operand, Column) or operand.alias is None:
            return None
        table = table_of(operand.alias)
        if table is None:
            return None
        stats = self._catalog.stats(table)
        if stats is None:
            return None
        return stats.column_stats(operand.column)

    def _leaf_selectivity(self, expr: Expr, table_of) -> float:
        stats = self._leaf_stats(expr, table_of)
        if isinstance(expr, Comparison):
            return self._comparison_selectivity(expr, stats)
        if isinstance(expr, InList):
            selectivity = self._in_selectivity(expr, stats)
            return 1.0 - selectivity if expr.negated else selectivity
        if isinstance(expr, Like):
            return self._like_selectivity(expr, stats)
        if isinstance(expr, Between):
            low = _constant_value(expr.low)
            high = _constant_value(expr.high)
            if low is None or high is None:
                selectivity = DEFAULT_RANGE_SELECTIVITY * DEFAULT_RANGE_SELECTIVITY
            else:
                selectivity = self._range_selectivity(stats, low=low, high=high)
            return 1.0 - selectivity if expr.negated else selectivity
        if isinstance(expr, IsNull):
            if stats is None:
                return DEFAULT_EQ_SELECTIVITY
            return stats.non_null_fraction if expr.negated else stats.null_fraction
        return DEFAULT_EQ_SELECTIVITY

    def _equality_selectivity(self, value, stats: Optional[ColumnStats]) -> float:
        if stats is None:
            return DEFAULT_EQ_SELECTIVITY
        if stats.n_distinct <= 0:
            return DEFAULT_EQ_SELECTIVITY
        if stats.mcv is not None:
            frequency = stats.mcv.frequency_of(value)
            if frequency is not None:
                return frequency * stats.non_null_fraction
            remaining_mass = max(0.0, 1.0 - stats.mcv.total_frequency)
            remaining_distinct = max(1, stats.n_distinct - len(stats.mcv))
            return remaining_mass * stats.non_null_fraction / remaining_distinct
        return stats.non_null_fraction / stats.n_distinct

    def _comparison_selectivity(
        self, predicate: Comparison, stats: Optional[ColumnStats]
    ) -> float:
        # Normalize to "column op constant": a literal on the left flips the
        # operator; anything without a constant side (column-to-column on the
        # same table, arithmetic) keeps only the default estimates.
        op = predicate.op
        if isinstance(predicate.left, Column) and isinstance(
            predicate.right, Literal
        ):
            value = predicate.right.value
        elif isinstance(predicate.right, Column) and isinstance(
            predicate.left, Literal
        ):
            value = predicate.left.value
            op = op.flipped()
        else:
            if op is ComparisonOp.EQ:
                return DEFAULT_EQ_SELECTIVITY
            if op is ComparisonOp.NE:
                return 1.0 - DEFAULT_EQ_SELECTIVITY
            return DEFAULT_RANGE_SELECTIVITY
        if value is None:
            # ``col op NULL`` is never true.
            return MIN_SELECTIVITY
        if op is ComparisonOp.EQ:
            return self._equality_selectivity(value, stats)
        if op is ComparisonOp.NE:
            return 1.0 - self._equality_selectivity(value, stats)
        if stats is None or stats.histogram is None:
            return DEFAULT_RANGE_SELECTIVITY
        histogram = stats.histogram
        if op in (ComparisonOp.LT, ComparisonOp.LE):
            fraction = histogram.selectivity_less_than(
                value, inclusive=op is ComparisonOp.LE
            )
        else:
            fraction = 1.0 - histogram.selectivity_less_than(
                value, inclusive=op is ComparisonOp.GT
            )
        return fraction * stats.non_null_fraction

    def _in_selectivity(
        self, predicate: InList, stats: Optional[ColumnStats]
    ) -> float:
        total = 0.0
        for item in predicate.items:
            value = _constant_value(item)
            if value is None and not isinstance(item, Literal):
                total += DEFAULT_EQ_SELECTIVITY
                continue
            total += self._equality_selectivity(value, stats)
        return min(1.0, total)

    def _like_selectivity(
        self, predicate: Like, stats: Optional[ColumnStats]
    ) -> float:
        """Heuristic pattern selectivity.

        Like PostgreSQL's ``patternsel``, the estimate only looks at the
        pattern text, never at the data, so correlated or skewed name columns
        (e.g. ``n.name LIKE '%Downey%Robert%'``) are mis-estimated — a source
        of error the paper calls out.
        """
        pattern = _constant_value(predicate.pattern)
        if not isinstance(pattern, str):
            selectivity = DEFAULT_LIKE_SELECTIVITY
            return 1.0 - selectivity if predicate.negated else selectivity
        literal_chars = sum(1 for ch in pattern if ch not in ("%", "_"))
        if "%" not in pattern and "_" not in pattern:
            selectivity = self._equality_selectivity(pattern, stats)
        else:
            # Contains-style patterns ('%foo%') are assumed less selective
            # than anchored prefixes ('foo%'), both decaying gently with the
            # number of literal characters.  The constants are calibrated so
            # single-table estimates are usually within a small factor of the
            # truth — the paper's premise is that *base table* estimates are
            # mostly fine and the damage comes from compounding across joins.
            if pattern.startswith("%"):
                base, decay = 0.08, 0.95
            else:
                base, decay = 0.05, 0.90
            selectivity = base * (decay ** max(0, literal_chars - 2))
            selectivity = max(selectivity, 1.0e-3)
        if predicate.negated:
            return 1.0 - selectivity
        return selectivity

    def _range_selectivity(self, stats: Optional[ColumnStats], low, high) -> float:
        if stats is None or stats.histogram is None:
            return DEFAULT_RANGE_SELECTIVITY * DEFAULT_RANGE_SELECTIVITY
        fraction = stats.histogram.selectivity_range(low=low, high=high)
        return fraction * stats.non_null_fraction


def _constant_value(expr: Expr) -> Optional[object]:
    """The Python value of a literal expression leaf (``None`` otherwise)."""
    if isinstance(expr, Literal):
        return expr.value
    return None


class CardinalityEstimator:
    """Estimates cardinalities of connected alias subsets of one query.

    The estimator memoizes one estimate per subset, mirrors PostgreSQL's
    behaviour of estimating a join relation's size once regardless of how the
    dynamic program later splits it, and consults one
    :class:`~repro.optimizer.injection.CardinalityInjector` before falling
    back to the statistical model.  Perfect-(n), LEO-style feedback and the
    selectable estimators are all injectors; the optimizer chains them into
    the one it passes here.

    Subsets are keyed by their :class:`JoinGraph` mask (:meth:`cardinality`);
    :meth:`subset_cardinality` is the ``frozenset`` wrapper, and the injector
    is handed ``frozenset`` names.
    """

    def __init__(
        self,
        catalog: Catalog,
        query: BoundQuery,
        graph: Optional[JoinGraph] = None,
        injector: Optional[CardinalityInjector] = None,
    ) -> None:
        self._catalog = catalog
        self.query = query
        self.graph = graph if graph is not None else JoinGraph(query)
        self.injector = injector
        self.selectivity = SelectivityEstimator(catalog)
        self._memo: Dict[int, float] = {}
        self.estimates_by_size: Counter = Counter()
        self.estimate_calls = 0

    # -- public API --------------------------------------------------------

    def scan_cardinality(self, alias: str) -> float:
        """Estimated rows of scanning ``alias`` with its filters applied."""
        return self.subset_cardinality((alias,))

    def subset_cardinality(self, subset: FrozenSet[str]) -> float:
        """Estimated rows of joining all aliases in ``subset``."""
        if not subset:
            raise CardinalityError("cannot estimate the empty alias set")
        mask = self.graph.mask(subset)
        if mask > self.graph.full:
            unknown = set(subset) - set(self.query.aliases)
            raise CardinalityError(
                f"aliases {sorted(unknown)} are not part of query {self.query.name!r}"
            )
        return self.cardinality(mask)

    def cardinality(self, mask: int) -> float:
        """Estimated rows of joining the aliases of a :class:`JoinGraph` mask."""
        rows = self._memo.get(mask)
        if rows is not None:
            return rows
        subset = self.graph.aliases_of(mask)
        self.estimate_calls += 1
        self.estimates_by_size[len(subset)] += 1
        # Compared against None: an *empty* DictInjection is falsy.
        injector = self.injector
        injected = None if injector is None else injector.lookup(self.query, subset)
        if injected is not None:
            rows = max(MIN_ROWS, float(injected))
        elif len(subset) == 1:
            rows = self._estimate_scan(next(iter(subset)))
        else:
            rows = self._estimate_join(mask)
        self._memo[mask] = rows
        return rows

    def join_selectivity(self, joins: Sequence[BoundJoin]) -> float:
        """Combined selectivity of the given join predicates (independence)."""
        selectivity = 1.0
        for join in joins:
            selectivity *= self.selectivity.join_predicate_selectivity(
                self.query.table_for(join.left_alias),
                join.left_column,
                self.query.table_for(join.right_alias),
                join.right_column,
            )
        return clamp_selectivity(selectivity)

    def filter_selectivity(self, alias: str, predicate: Expr) -> float:
        """Selectivity of one filter on ``alias`` (used for access-path costing)."""
        return self.selectivity.filter_selectivity(
            self.query.table_for(alias), predicate
        )

    def residual_selectivity(self, residuals: List[Expr]) -> float:
        """Combined selectivity of residual join filters (independence)."""
        selectivity = 1.0
        for residual in residuals:
            selectivity *= self.selectivity.expr_selectivity(
                residual, self._table_of
            )
        return clamp_selectivity(selectivity)

    def _table_of(self, alias: str) -> Optional[str]:
        if alias in self.query.alias_tables:
            return self.query.alias_tables[alias]
        return None

    def invalidate(self, subset: Optional[FrozenSet[str]] = None) -> None:
        """Drop memoized estimates (all of them, or just ``subset``)."""
        if subset is None:
            self._memo.clear()
        else:
            self._memo.pop(self.graph.mask(subset), None)

    # -- internals ----------------------------------------------------------

    def _estimate_scan(self, alias: str) -> float:
        table = self.query.table_for(alias)
        filters = self.query.filters_for(alias)
        return self.selectivity.scan_rows(table, filters)

    def _estimate_join(self, mask: int) -> float:
        graph = self.graph
        removable = graph.pick_removable(mask)
        remainder = mask ^ removable
        joins = graph.joins_between(remainder, removable)
        left_rows = self.cardinality(remainder)
        right_rows = self.cardinality(removable)
        # Residual join filters become applicable exactly when the subset
        # first covers all their aliases; their selectivity multiplies in
        # here so every plan over this subset sees the same estimate.
        residuals = [
            residual
            for residual, aliases in graph.residuals
            if aliases & removable and not aliases & ~mask
        ]
        selectivity = self.residual_selectivity(residuals) if residuals else 1.0
        if not joins and not residuals:
            # Disconnected subset: Cartesian product semantics.
            return max(MIN_ROWS, left_rows * right_rows)
        if joins:
            selectivity *= self.join_selectivity(joins)
        return max(MIN_ROWS, left_rows * right_rows * selectivity)
