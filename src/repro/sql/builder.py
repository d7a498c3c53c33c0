"""Shape-preserving rewrites of bound queries, and the columns they touch.

Every :class:`~repro.sql.binder.BoundQuery` starts at the binder
(:meth:`repro.engine.Database.parse`); this module only derives queries from
bound ones and reads them:

* :func:`collapse_aliases` is the paper's re-optimization rewrite (Figure 6):
  a set of aliases becomes one materialized temporary table
  (:mod:`repro.executor.handover`).
* :func:`referenced_columns`, :func:`scan_referenced_columns` and
  :func:`estimated_columns` list the columns of an alias that the handover,
  the scans (late materialization) and the estimators need.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import BindError
from repro.sql.ast import (
    Column,
    ColumnRef,
    Expr,
    SelectItem,
    transform_expr,
)
from repro.sql.binder import BoundJoin, BoundQuery, BoundSortKey


def collapse_aliases(
    query: BoundQuery,
    collapsed: Sequence[str],
    temp_table: str,
    temp_alias: str,
    column_mapping: Dict[Tuple[str, str], str],
) -> BoundQuery:
    """Rewrite ``query`` replacing the aliases in ``collapsed`` with a temp table.

    This is the paper's re-optimization rewrite (Figure 6): the sub-join over
    ``collapsed`` has been materialized into ``temp_table``; the remainder of
    the query refers to the temp table instead of the original tables.

    Args:
        query: the bound query to rewrite.
        collapsed: aliases that were materialized.
        temp_table: catalog name of the temporary table.
        temp_alias: alias to use for the temporary table in the rewritten query.
        column_mapping: maps ``(original_alias, original_column)`` to the name
            of the corresponding column in the temporary table.  Every column
            of a collapsed alias still referenced by the remainder of the
            query (select list, joins to non-collapsed tables) must appear.

    Returns:
        A new :class:`BoundQuery`; the input query is left untouched.

    Raises:
        BindError: if a still-needed column of a collapsed alias is missing
            from ``column_mapping``.
    """
    collapsed_set = set(collapsed)
    unknown = collapsed_set - set(query.aliases)
    if unknown:
        raise BindError(f"cannot collapse unknown aliases {sorted(unknown)}")

    def remap(alias: str, column: str) -> Tuple[str, str]:
        if alias not in collapsed_set:
            return alias, column
        try:
            return temp_alias, column_mapping[(alias, column)]
        except KeyError:
            raise BindError(
                f"column {alias}.{column} is required by the rewritten query but "
                "is not exposed by the materialized temporary table"
            ) from None

    new_aliases = [a for a in query.aliases if a not in collapsed_set] + [temp_alias]
    new_alias_tables = {
        alias: table
        for alias, table in query.alias_tables.items()
        if alias not in collapsed_set
    }
    new_alias_tables[temp_alias] = temp_table

    def remap_expr(expr: Expr) -> Expr:
        def remap_node(node: Expr) -> Expr:
            if isinstance(node, Column):
                alias, column = remap(node.ref.alias, node.ref.column)
                if (alias, column) != (node.ref.alias, node.ref.column):
                    return Column(ColumnRef(alias=alias, column=column))
            return node

        return transform_expr(expr, remap_node)

    new_select: List[SelectItem] = []
    for item in query.select_items:
        if item.expr is None:  # COUNT(*) references no specific column
            new_select.append(item)
            continue
        new_select.append(
            SelectItem(
                expr=remap_expr(item.expr),
                aggregate=item.aggregate,
                output_name=item.output_name,
                result_type=item.result_type,
            )
        )

    new_group_by: List[ColumnRef] = []
    for ref in query.group_by:
        alias, column = remap(ref.alias, ref.column)
        new_group_by.append(ColumnRef(alias=alias, column=column))

    # Output-column keys (alias "") are untouched; base-table keys follow
    # the same remap rule as every other column reference.
    new_order_by = []
    for key in query.order_by:
        if key.alias:
            alias, column = remap(key.alias, key.column)
            key = BoundSortKey(alias=alias, column=column, ascending=key.ascending)
        new_order_by.append(key)

    new_filters: Dict[str, List[Expr]] = {
        alias: list(preds)
        for alias, preds in query.filters.items()
        if alias not in collapsed_set
    }

    # Residual join filters fully inside the collapsed set were already
    # applied while materializing the sub-join; partially overlapping ones
    # are remapped onto the temp table's columns and kept.
    new_residuals: List[Expr] = []
    for residual in query.residuals:
        aliases = set(residual.referenced_aliases())
        if aliases <= collapsed_set:
            continue
        if aliases & collapsed_set:
            new_residuals.append(remap_expr(residual))
        else:
            new_residuals.append(residual)

    new_joins: List[BoundJoin] = []
    seen: set = set()
    for join in query.joins:
        left_in = join.left_alias in collapsed_set
        right_in = join.right_alias in collapsed_set
        if left_in and right_in:
            # Fully absorbed into the materialized sub-join.
            continue
        left_alias, left_column = remap(join.left_alias, join.left_column)
        right_alias, right_column = remap(join.right_alias, join.right_column)
        key = frozenset(
            ((left_alias, left_column), (right_alias, right_column))
        )
        if key in seen:
            # Two original join predicates can collapse into the same predicate
            # against the temp table (transitive equalities); keep one.
            continue
        seen.add(key)
        new_joins.append(
            BoundJoin(
                left_alias=left_alias,
                left_column=left_column,
                right_alias=right_alias,
                right_column=right_column,
            )
        )

    return BoundQuery(
        name=query.name,
        aliases=new_aliases,
        alias_tables=new_alias_tables,
        select_items=new_select,
        filters=new_filters,
        joins=new_joins,
        residuals=new_residuals,
        constant_filters=list(query.constant_filters),
        distinct=query.distinct,
        group_by=new_group_by,
        order_by=new_order_by,
        limit=query.limit,
        offset=query.offset,
    )


def referenced_columns(query: BoundQuery, aliases: Iterable[str]) -> List[Tuple[str, str]]:
    """Columns of ``aliases`` referenced outside the group or in the select list.

    Used by the re-optimization driver to decide which columns the
    materialized temporary table must expose.  Select-list expressions are
    walked for every column they touch; grouping keys, (for ``SELECT *``
    queries) base-table sort keys, joins to non-collapsed tables and
    residual join filters straddling the group boundary count as referenced
    too.
    """
    alias_set = set(aliases)
    needed: List[Tuple[str, str]] = []

    def add(alias: str, column: str) -> None:
        if alias in alias_set and (alias, column) not in needed:
            needed.append((alias, column))

    for item in query.select_items:
        if item.expr is not None:
            for ref in item.expr.referenced_columns():
                add(ref.alias, ref.column)
    for ref in query.group_by:
        add(ref.alias, ref.column)
    for key in query.order_by:
        if key.alias:
            add(key.alias, key.column)
    for join in query.joins:
        left_in = join.left_alias in alias_set
        right_in = join.right_alias in alias_set
        if left_in and not right_in:
            add(join.left_alias, join.left_column)
        elif right_in and not left_in:
            add(join.right_alias, join.right_column)
    for residual in query.residuals:
        referenced = set(residual.referenced_aliases())
        if referenced & alias_set and not referenced <= alias_set:
            # The filter straddles the boundary: the remainder of the query
            # still evaluates it, so the collapsed side's columns ride along.
            for ref in residual.referenced_columns():
                add(ref.alias, ref.column)
    return needed


def scan_referenced_columns(query: BoundQuery, alias: str) -> Optional[FrozenSet[str]]:
    """Every column of ``alias`` the rest of the query can touch.

    The planner attaches this set to the alias's scan node so the execution
    engines gather and decode only referenced columns (late materialization).
    The union is deliberately complete — select expressions, the alias's own
    pushed-down filters (the scan batch must carry its filter inputs), join
    keys on either side, residual join filters, grouping keys and sort keys —
    so everything downstream of the scan resolves against the narrowed batch.

    Returns ``None`` for ``SELECT *`` queries (empty ``select_items`` means
    the scan's full width *is* the output) — the scan then stays full-width.
    """
    if not query.select_items:
        return None
    needed = set(estimated_columns(query, alias))
    for item in query.select_items:
        if item.expr is None:
            continue
        for ref in item.expr.referenced_columns():
            if ref.alias == alias:
                needed.add(ref.column)
    return frozenset(needed)


def estimated_columns(query: BoundQuery, alias: str) -> FrozenSet[str]:
    """Columns of ``alias`` the planner can ask statistics about.

    Everything that selects, matches or groups rows: the alias's pushed-down
    filters, join keys, residual join filters, grouping keys and sort keys.
    What is left out is the select list — a column that survives only as an
    aggregate's argument or a projected value never meets the estimator —
    unless the query is ``DISTINCT``, whose output size is estimated from the
    projected columns' distinct counts.
    """
    needed = set()
    if query.distinct:
        for item in query.select_items:
            if item.column is not None and item.column.alias == alias:
                needed.add(item.column.column)
    for predicate in query.filters_for(alias):
        for ref in predicate.referenced_columns():
            if ref.alias == alias:
                needed.add(ref.column)
    for join in query.joins:
        if join.left_alias == alias:
            needed.add(join.left_column)
        if join.right_alias == alias:
            needed.add(join.right_column)
    for residual in query.residuals:
        for ref in residual.referenced_columns():
            if ref.alias == alias:
                needed.add(ref.column)
    for ref in query.group_by:
        if ref.alias == alias:
            needed.add(ref.column)
    for key in query.order_by:
        if key.alias == alias:
            needed.add(key.column)
    return frozenset(needed)
