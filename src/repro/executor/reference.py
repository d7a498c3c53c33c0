"""Row-at-a-time reference operators (the differential-testing oracle).

This module preserves the original tuple-at-a-time execution engine as a
slow, obviously-correct oracle.  The vectorized operators in
:mod:`repro.executor.operators` must produce the same result multiset *and*
the same work-accounting inputs (rows fetched, output cardinalities, index
probe match counts) for every query; ``tests/test_executor_differential.py``
enforces this over the bundled workloads.

The engine is a *functional simulator*: every operator produces exactly the
rows a real implementation would produce, but the physical algorithm chosen
by the optimizer is reflected in the deterministic work accounting (see
:mod:`repro.executor.executor`), not in how the rows are computed.  In
particular a plan node labelled ``NESTED_LOOP`` is evaluated with a hash
table internally — same output, bounded wall-clock — while its *charged* work
is quadratic, exactly what the paper's execution times show when the
optimizer picks a nested loop on an underestimated input.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.errors import ExecutionError
from repro.executor.expressions import (
    ColumnResolver,
    compile_conjunction,
    compile_scalar,
    index_probe_keys,
)
from repro.sql.ast import AggregateFunc, ColumnRef, SelectItem
from repro.sql.binder import BoundJoin, BoundSortKey, output_column_name

QualifiedColumn = Tuple[str, str]


class ResultSet:
    """An intermediate result: qualified column names plus row tuples."""

    def __init__(self, columns: Sequence[QualifiedColumn], rows: List[tuple]) -> None:
        self.columns: Tuple[QualifiedColumn, ...] = tuple(columns)
        self.rows = rows
        self.resolver = ColumnResolver(self.columns)

    def __len__(self) -> int:
        return len(self.rows)

    def column_position(self, alias: str, column: str) -> int:
        """Position of ``alias.column`` in each row tuple."""
        return self.resolver.position(alias, column)

    def column_values(self, alias: str, column: str) -> List[object]:
        """All values of one column."""
        position = self.column_position(alias, column)
        return [row[position] for row in self.rows]

    def project(self, columns: Sequence[QualifiedColumn]) -> "ResultSet":
        """Return a new result set with only the requested columns."""
        positions = [self.column_position(alias, column) for alias, column in columns]
        rows = [tuple(row[p] for p in positions) for row in self.rows]
        return ResultSet(columns, rows)


def scan_table(
    catalog: Catalog,
    alias: str,
    table_name: str,
    filters: Sequence,
    index_column: Optional[str] = None,
    index_filter=None,
    observed: Optional[Dict[str, int]] = None,
    pruned_partitions: Optional[Sequence[int]] = None,
    columns: Optional[Sequence[str]] = None,
) -> Tuple[ResultSet, int]:
    """Scan a base table, optionally through an index.

    ``observed`` is part of the operator protocol (the vectorized engine's
    sequential scans record their skip/decode counters through it); the
    oracle reports nothing.
    A sequential scan reads the table's shards in partition order, matching
    its global row-id order; ``pruned_partitions`` drops whole shards before
    filtering.  ``columns`` — the planner's
    projection-pushdown set — is deliberately **ignored**: the oracle always
    reads full-width decoded rows, so differential tests independently
    check that late materialization never changes any referenced value.

    Returns:
        ``(result, rows_fetched)`` where ``rows_fetched`` is the number of
        rows read from storage before residual filtering (used for work
        accounting: an index scan reads fewer rows than a sequential scan).
    """
    table = catalog.table(table_name)
    columns: List[QualifiedColumn] = [
        (alias, name) for name in table.schema.column_names
    ]
    resolver = ColumnResolver(columns)

    if index_column is not None and index_filter is not None:
        index = catalog.indexes(table_name).get(index_column)
        if index is None:
            raise ExecutionError(
                f"plan requires an index on {table_name}.{index_column} that does not exist"
            )
        keys = index_probe_keys(index_filter)
        row_ids: List[int] = []
        for key in keys:
            row_ids.extend(index.lookup(key))
        candidate_rows = [table.row(row_id) for row_id in sorted(set(row_ids))]
    else:
        pruned = set(pruned_partitions or ())
        candidate_rows = []
        for shard, partition in enumerate(table.partitions()):
            if shard not in pruned:
                candidate_rows.extend(partition.iter_rows())

    rows_fetched = len(candidate_rows)
    predicate = compile_conjunction(list(filters), resolver)
    rows = [row for row in candidate_rows if predicate(row)]
    return ResultSet(columns, rows), rows_fetched


def resolve_join_positions(
    left, right, joins: Sequence[BoundJoin]
) -> Tuple[List[int], List[int]]:
    """Column positions of each join key in the left / right inputs.

    Shared by both engines so predicate orientation is resolved identically.
    """
    left_positions: List[int] = []
    right_positions: List[int] = []
    for join in joins:
        if left.resolver.has(join.left_alias, join.left_column):
            left_positions.append(left.column_position(join.left_alias, join.left_column))
            right_positions.append(
                right.column_position(join.right_alias, join.right_column)
            )
        else:
            left_positions.append(left.column_position(join.right_alias, join.right_column))
            right_positions.append(
                right.column_position(join.left_alias, join.left_column)
            )
    return left_positions, right_positions


def join_results(
    left: ResultSet,
    right: ResultSet,
    joins: Sequence[BoundJoin],
    observed: Optional[Dict[str, int]] = None,
) -> ResultSet:
    """Equi-join two result sets on all given join predicates.

    The physical evaluation always builds a hash table on the smaller input;
    the optimizer's algorithm choice only affects work accounting.  When
    ``observed`` is given, the build/probe input sizes of the hash-join
    pipeline breaker are recorded exactly as the vectorized engine records
    them (see :func:`repro.executor.operators.join_results`).
    """
    if not joins:
        raise ExecutionError("join_results requires at least one join predicate")
    left_positions, right_positions = resolve_join_positions(left, right, joins)

    columns = list(left.columns) + list(right.columns)
    build_on_left = len(left.rows) <= len(right.rows)
    if observed is not None:
        observed["build_rows"] = min(len(left.rows), len(right.rows))
        observed["probe_rows"] = max(len(left.rows), len(right.rows))
    if build_on_left:
        build, probe = left, right
        build_positions, probe_positions = left_positions, right_positions
    else:
        build, probe = right, left
        build_positions, probe_positions = right_positions, left_positions

    buckets: Dict[tuple, List[tuple]] = {}
    for row in build.rows:
        key = tuple(row[p] for p in build_positions)
        if any(v is None for v in key):
            continue
        buckets.setdefault(key, []).append(row)

    out_rows: List[tuple] = []
    for row in probe.rows:
        key = tuple(row[p] for p in probe_positions)
        if any(v is None for v in key):
            continue
        matches = buckets.get(key)
        if not matches:
            continue
        for match in matches:
            if build_on_left:
                out_rows.append(match + row)
            else:
                out_rows.append(row + match)
    return ResultSet(columns, out_rows)


def cross_join_results(
    left: ResultSet,
    right: ResultSet,
    observed: Optional[Dict[str, int]] = None,
) -> ResultSet:
    """Cartesian product of two result sets (residual-only joins).

    Row order is left-major (every left row paired with all right rows in
    order) in both engines, so residual filtering downstream stays
    differential-test comparable.
    """
    if observed is not None:
        observed["build_rows"] = min(len(left.rows), len(right.rows))
        observed["probe_rows"] = max(len(left.rows), len(right.rows))
    columns = list(left.columns) + list(right.columns)
    rows = [l + r for l in left.rows for r in right.rows]
    return ResultSet(columns, rows)


def filter_result(result: ResultSet, predicates: Sequence) -> ResultSet:
    """Apply filter expressions to an intermediate result (residual filters)."""
    predicate = compile_conjunction(list(predicates), result.resolver)
    return ResultSet(result.columns, [row for row in result.rows if predicate(row)])


def empty_result(columns: Sequence[QualifiedColumn]) -> ResultSet:
    """An empty result with the given column layout (pruned subtrees)."""
    return ResultSet(columns, [])


def count_index_probe_matches(
    outer: ResultSet,
    outer_positions: Sequence[int],
    catalog: Catalog,
    inner_table: str,
    inner_column: str,
) -> int:
    """Number of index matches an index-nested-loop join would fetch.

    Counts, over all outer rows, how many inner rows share the join key
    *before* the inner table's residual filters are applied — the quantity an
    index nested loop actually pays for.
    """
    index = catalog.indexes(inner_table).get(inner_column)
    if index is None:
        return 0
    key_counts: Counter = Counter()
    for row in outer.rows:
        key = tuple(row[p] for p in outer_positions)
        if any(v is None for v in key):
            continue
        key_counts[key[0] if len(key) == 1 else key] += 1
    matches = 0
    for key, count in key_counts.items():
        probe_key = key if not isinstance(key, tuple) else key[0]
        matches += count * len(index.lookup(probe_key))
    return matches


def output_columns(select_items: Sequence[SelectItem]) -> List[QualifiedColumn]:
    """Output column names of a projected/aggregated result (shared rule)."""
    return [("", output_column_name(item, i)) for i, item in enumerate(select_items)]


def fold_aggregate(item: SelectItem, values: List[object]) -> object:
    """Fold one aggregate over the raw (NULL-inclusive) values of a group.

    Every aggregate skips NULLs and returns NULL (COUNT: 0) over an empty or
    all-NULL input, per SQL semantics; callers handle ``COUNT(*)`` themselves
    (there is no single values column to fold).  ``SUM``/``AVG`` accumulate
    in input order so float results are identical across engines.  The
    vectorized engine implements the same rules independently
    (``operators._fold_column`` / ``operators._fold_grouped``) so the
    differential suite cross-checks them rather than testing one shared
    implementation against itself.
    """
    if item.aggregate is AggregateFunc.COUNT:
        return sum(1 for v in values if v is not None)
    non_null = [v for v in values if v is not None]
    if item.aggregate is AggregateFunc.MIN:
        return min(non_null) if non_null else None
    if item.aggregate is AggregateFunc.MAX:
        return max(non_null) if non_null else None
    if item.aggregate in (AggregateFunc.SUM, AggregateFunc.AVG):
        if not non_null:
            return None
        # Seed from the first value rather than sum()'s integer 0 so IEEE
        # signed zeros survive (0 + -0.0 is 0.0, but -0.0 alone stays -0.0),
        # keeping float results bit-identical with the vectorized engine.
        total = functools.reduce(lambda acc, value: acc + value, non_null)
        if item.aggregate is AggregateFunc.SUM:
            return total
        return total / len(non_null)
    # Bare column inside an aggregate context (legacy direct-operator use).
    return non_null[0] if non_null else None


def _item_values(result: ResultSet, item: SelectItem) -> List[object]:
    """Per-row values of one select item's expression (row-at-a-time eval)."""
    ref = item.column
    if ref is not None:
        return result.column_values(ref.alias, ref.column)
    scalar = compile_scalar(item.expr, result.resolver)
    return [scalar(row) for row in result.rows]


def aggregate_result(
    result: ResultSet, select_items: Sequence[SelectItem]
) -> ResultSet:
    """Apply the final (ungrouped) aggregation / projection.

    Computed select items (``a + b``, ``CASE ...``) are evaluated row by row
    through the compiled row closures; aggregates over expressions
    (``SUM(a*b)``) fold over those per-row values.
    """
    if not select_items:
        return result
    has_aggregate = any(item.aggregate is not None for item in select_items)
    columns = output_columns(select_items)
    if has_aggregate:
        row: List[object] = []
        for item in select_items:
            if item.expr is None:  # COUNT(*)
                row.append(len(result))
                continue
            row.append(fold_aggregate(item, _item_values(result, item)))
        return ResultSet(columns, [tuple(row)])
    if all(item.column is not None for item in select_items):
        positions = [
            result.column_position(item.column.alias, item.column.column)
            for item in select_items
        ]
        rows = [tuple(row[p] for p in positions) for row in result.rows]
        return ResultSet(columns, rows)
    # Computed projection columns: one compiled evaluator per item.
    getters: List = []
    for item in select_items:
        ref = item.column
        if ref is not None:
            position = result.column_position(ref.alias, ref.column)
            getters.append(lambda row, p=position: row[p])
        else:
            getters.append(compile_scalar(item.expr, result.resolver))
    rows = [tuple(getter(row) for getter in getters) for row in result.rows]
    return ResultSet(columns, rows)


def group_aggregate_result(
    result: ResultSet,
    group_keys: Sequence[ColumnRef],
    select_items: Sequence[SelectItem],
) -> ResultSet:
    """Grouped aggregation: one output row per distinct group-key tuple.

    NULL group-key values form their own group (SQL's GROUP BY treats NULLs
    as equal).  Groups are emitted in first-appearance order, which both
    engines share, so row order matches the vectorized engine exactly.
    """
    key_positions = [
        result.column_position(ref.alias, ref.column) for ref in group_keys
    ]
    group_index: Dict[tuple, int] = {}
    group_rows: List[List[tuple]] = []
    for row in result.rows:
        key = tuple(row[p] for p in key_positions)
        index = group_index.get(key)
        if index is None:
            group_index[key] = index = len(group_rows)
            group_rows.append([])
        group_rows[index].append(row)

    # Each item evaluates per row: a bare column by position, a computed
    # expression through its compiled row closure; COUNT(*) has no values.
    item_getters: List = []
    for item in select_items:
        if item.expr is None:
            item_getters.append(None)  # COUNT(*)
        elif item.column is not None:
            position = result.column_position(item.column.alias, item.column.column)
            item_getters.append(lambda row, p=position: row[p])
        else:
            item_getters.append(compile_scalar(item.expr, result.resolver))
    out_rows: List[tuple] = []
    for rows in group_rows:
        out: List[object] = []
        for item, getter in zip(select_items, item_getters):
            if getter is None:  # COUNT(*)
                out.append(len(rows))
            elif item.aggregate is None:
                # Non-aggregate grouped items depend only on group keys
                # (binder rule), so the first row represents the group.
                out.append(getter(rows[0]))
            else:
                out.append(fold_aggregate(item, [getter(row) for row in rows]))
        out_rows.append(tuple(out))
    return ResultSet(output_columns(select_items), out_rows)


def sort_result(
    result: ResultSet,
    keys: Sequence[BoundSortKey],
    tie_break: Sequence = (),
    tie_break_all: bool = False,
) -> ResultSet:
    """Sort the result on the given keys (comparator-based, the oracle way).

    NULL placement is deterministic: NULLS LAST for ascending keys, NULLS
    FIRST for descending (PostgreSQL's default).  Rows tying on every key
    keep their input order (stable sort).  This is implemented independently
    of the vectorized engine's multi-pass sort — same ordering rules, a
    different algorithm — so the differential suite genuinely cross-checks
    ORDER BY semantics between the engines.

    ``tie_break`` expressions (or, with ``tie_break_all``, every input
    column positionally) extend the comparator below the declared keys as
    ascending NULLS-LAST columns, realizing the same deterministic total
    order the vectorized engine's extra tie passes produce under ``LIMIT``.
    """
    key_columns = [
        (result.column_values(key.alias, key.column), key.ascending)
        for key in keys
    ]
    if tie_break_all:
        for position in range(len(result.columns)):
            key_columns.append(([row[position] for row in result.rows], True))
    else:
        for expr in tie_break:
            scalar = compile_scalar(expr, result.resolver)
            key_columns.append(([scalar(row) for row in result.rows], True))

    def compare(a: int, b: int) -> int:
        for values, ascending in key_columns:
            va, vb = values[a], values[b]
            if va is None and vb is None:
                continue
            if va is None:  # NULLS LAST asc, NULLS FIRST desc
                return 1 if ascending else -1
            if vb is None:
                return -1 if ascending else 1
            if va == vb:
                continue
            if va < vb:
                return -1 if ascending else 1
            return 1 if ascending else -1
        return 0

    order = sorted(range(len(result)), key=functools.cmp_to_key(compare))
    return ResultSet(result.columns, [result.rows[i] for i in order])


def limit_result(result: ResultSet, limit: int, offset: int = 0) -> ResultSet:
    """Apply LIMIT/OFFSET to the result rows."""
    start = min(max(0, offset), len(result))
    end = min(start + max(0, limit), len(result))
    return ResultSet(result.columns, result.rows[start:end])


def distinct_result(result: ResultSet) -> ResultSet:
    """Drop duplicate rows, keeping the first occurrence of each."""
    seen = set()
    rows: List[tuple] = []
    for row in result.rows:
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return ResultSet(result.columns, rows)
