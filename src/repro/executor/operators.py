"""Vectorized (columnar, batch-at-a-time) relational operators.

This is the default execution engine.  Every operator consumes and produces
:class:`~repro.executor.batch.ColumnBatch` objects:

* ``scan_table`` walks a table's unpruned shards
  (:func:`~repro.executor.scan.scan_shards`): one shard of open columns is
  wrapped into a batch without copying and narrowed by a selection vector,
  sealed or several shards materialize only their surviving rows;
* ``join_results`` hash-joins two batches by materializing only the key
  columns and returns the factorized match; whole columns are gathered from
  it per side, the output's selection vectors are laid out only when
  something downstream reads *them*, and no payload column is touched
  before either;
* ``index_join_results`` joins through the inner table's hash index: one
  lookup per distinct outer key, the fetched rows kept where the inner scan
  kept them, and the same factorized match as ``join_results``;
* ``aggregate_result`` folds aggregates directly over column lists — and
  ``MIN``/``MAX``/``COUNT(*)`` straight over a join's match, per side,
  without ever laying its output out.

The engine mirrors :mod:`repro.executor.reference` exactly: same output
multiset (in fact the same row order: probe-side-major, build insertion
order within a key) and same work-accounting inputs.  Hash and
nested-loop joins both run as ``join_results``' hash join — their algorithm
only changes the deterministic work :mod:`repro.executor.executor`
charges; an index nested-loop join runs through the index
(``index_join_results``) and yields the very rows, in the very order, the
hash join would.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, repeat
from operator import is_, itemgetter, mul, not_
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.errors import ExecutionError
from repro.executor.batch import ColumnBatch
from repro.executor.expressions import (
    compile_batch_conjunction,
    compile_batch_scalar,
    index_probe_keys,
)
from repro.executor.reference import (
    ResultSet,
    output_columns,
    resolve_join_positions,
)
from repro.executor.scan import scan_rows, scan_shards
from repro.sql.ast import AggregateFunc, ColumnRef, SelectItem
from repro.sql.binder import BoundJoin, BoundSortKey

QualifiedColumn = Tuple[str, str]

__all__ = [
    "ColumnBatch",
    "ResultSet",
    "aggregate_result",
    "cross_join_results",
    "distinct_result",
    "empty_result",
    "filter_result",
    "group_aggregate_result",
    "index_join_results",
    "join_results",
    "limit_result",
    "scan_table",
    "sort_result",
]


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
) -> Tuple[ColumnBatch, int]:
    """Scan a base table column-wise, optionally through an index.

    A sequential scan walks the table's shards through the
    late-materialization pipeline in :mod:`repro.executor.scan` — segment
    skipping, compressed-domain filter kernels, then decode of only the
    surviving rows; ``pruned_partitions`` (derived by the executor from the
    zone maps of a partitioned table) drops whole shards before the filter
    runs.  An index scan gathers the table's columns and keeps the indexed
    rows.  ``columns`` is the planner's projection-pushdown set (``None`` =
    full width); it must include every column the filters reference.
    ``observed`` is part of the operator protocol (sequential scans record
    their skip/decode counters through it).

    Returns:
        ``(batch, rows_fetched)`` where ``rows_fetched`` is the number of
        rows read from storage before residual filtering (used for work
        accounting: an index scan reads fewer rows than a sequential scan,
        a pruned partitioned scan fewer than the full table).
    """
    table = catalog.table(table_name)
    if index_column is None or index_filter is None:
        return scan_shards(
            table, alias, list(filters), pruned_partitions or (), columns, observed
        )
    index = _index_on(catalog, table_name, index_column)
    row_ids: List[int] = []
    for key in index_probe_keys(index_filter):
        row_ids.extend(index.lookup(key))
    row_ids = sorted(set(row_ids))
    return scan_rows(table, alias, row_ids, list(filters), columns), len(row_ids)


def _key_rows(
    batch: ColumnBatch, positions: Sequence[int]
) -> List[object]:
    """Per-row join keys: the bare value for one column, tuples otherwise."""
    if len(positions) == 1:
        return batch.values(positions[0])
    return list(zip(*(batch.values(p) for p in positions)))


def _key_is_null(key: object, composite: bool) -> bool:
    if composite:
        return any(v is None for v in key)
    return key is None


def join_results(
    left: ColumnBatch,
    right: ColumnBatch,
    joins: Sequence[BoundJoin],
    observed: Optional[Dict[str, int]] = None,
) -> ColumnBatch:
    """Equi-join two batches on all given join predicates.

    The physical evaluation always builds a hash table on the smaller input;
    every join but an index nested loop (:func:`index_join_results`) runs
    here, whatever algorithm the optimizer chose.  Only the
    key columns are materialized, and the returned batch is the factorized
    match (:meth:`ColumnBatch.from_join`): it knows its length — all the
    scheduler, the cost model and a re-optimization trigger ask of a join —
    gathers a column that is read whole on that column's side (the next
    join's key, a handover, ``SUM``, a group key) and composes the inputs'
    selection vectors into the output's only for a reader of the vectors
    (the layout of the join above, a residual filter, a projection).  An
    ungrouped ``MIN``/``MAX``/``COUNT(*)`` on top reads each matched row once.

    When ``observed`` is given, the operator records the runtime statistics
    of its pipeline breaker — the rows materialized into the hash build side
    and the rows streamed through the probe side — which the executor attaches
    to the node's metrics.  Both engines report identical values (the build
    side is always the smaller input), keeping the statistic differential-
    test comparable.
    """
    if not joins:
        raise ExecutionError("join_results requires at least one join predicate")
    left = ColumnBatch.from_result(left)
    right = ColumnBatch.from_result(right)
    left_positions, right_positions = resolve_join_positions(left, right, joins)

    build_on_left = len(left) <= len(right)
    if observed is not None:
        observed["build_rows"] = min(len(left), len(right))
        observed["probe_rows"] = max(len(left), len(right))
    if build_on_left:
        build, probe = left, right
        build_positions, probe_positions = left_positions, right_positions
    else:
        build, probe = right, left
        build_positions, probe_positions = right_positions, left_positions

    composite = len(build_positions) > 1
    build_keys = _key_rows(build, build_positions)
    buckets: Dict[object, List[int]] = {}
    for i, key in enumerate(build_keys):
        if _key_is_null(key, composite):
            continue
        buckets.setdefault(key, []).append(i)

    # One C-level pass per step over the probe keys: look every key up (a
    # NULL key misses: none was inserted), keep the positions that hit and
    # their buckets.  Laid out, that is probe-side-major, build insertion
    # order within a key.
    probe_keys = _key_rows(probe, probe_positions)
    matched = list(map(buckets.get, probe_keys))
    if all(matched):  # every probe row hit: no positions to keep (``None``)
        probe_idx, hit_buckets = None, matched
    else:
        probe_idx = list(compress(range(len(matched)), matched))
        hit_buckets = list(compress(matched, matched))
    if len(buckets) == len(build_keys):  # distinct build keys: one pair per hit
        pairs = len(hit_buckets)
    else:
        pairs = sum(map(len, hit_buckets))
    return ColumnBatch.from_join(
        left, right, build_on_left, probe_idx, hit_buckets, pairs
    )


def index_join_results(
    outer: ColumnBatch,
    inner: ColumnBatch,
    joins: Sequence[BoundJoin],
    catalog: Catalog,
    inner_table: str,
    observed: Optional[Dict[str, int]] = None,
) -> Tuple[ColumnBatch, int]:
    """Index nested-loop join: fetch the inner rows through its hash index.

    ``inner`` is the output of a scan of ``inner_table``; ``joins[0]`` is
    the predicate whose inner column carries the index.  Each distinct
    non-NULL outer key of that predicate is looked up once; a fetched row
    joins when the inner scan kept it (its pushed-down filters passed) and
    it matches on every other predicate.

    The rows, their order and ``observed`` are exactly :func:`join_results`'
    on the same inputs: inner-major (inner rows ascending, outer insertion
    order within a key) when ``len(outer) <= len(inner)``, outer-major
    (inner rows ascending within a key) otherwise.

    Returns:
        ``(batch, matches)`` with ``matches`` the rows the index lookups
        fetched, summed over outer rows — the charged quantity, counted
        before the inner filters.
    """
    if not joins:
        raise ExecutionError("index_join_results requires at least one join predicate")
    outer = ColumnBatch.from_result(outer)
    inner = ColumnBatch.from_result(inner)
    row_ids = inner.row_ids()
    if row_ids is None:
        raise ExecutionError("an index nested-loop join needs a base-table scan as inner")
    outer_positions, inner_positions = resolve_join_positions(outer, inner, joins)
    index = _index_on(catalog, inner_table, inner.columns[inner_positions[0]][1])
    if observed is not None:
        observed["build_rows"] = min(len(outer), len(inner))
        observed["probe_rows"] = max(len(outer), len(inner))

    composite = len(joins) > 1
    outer_keys = _key_rows(outer, outer_positions)
    multiplicity = Counter([key[0] for key in outer_keys] if composite else outer_keys)
    multiplicity.pop(None, None)
    fetched_of = {value: index.lookup(value) for value in multiplicity}
    matches = sum(map(mul, multiplicity.values(), map(len, fetched_of.values())))
    locate = _row_locator(row_ids)
    # Inner positions per join key, ascending: the build side's buckets as
    # the hash join would fill them, but only for keys the outer holds.
    inner_of: Dict[object, List[int]] = {}
    for value, fetched in fetched_of.items():
        positions = locate(fetched)
        if not positions:
            continue
        if not composite:
            inner_of[value] = positions
            continue
        others = [inner.take(p, positions) for p in inner_positions[1:]]
        for position, key in zip(positions, zip(repeat(value), *others)):
            if not _key_is_null(key, True):
                inner_of.setdefault(key, []).append(position)

    if len(outer) > len(inner):  # outer-major: outer rows probe the inner buckets
        matched = list(map(inner_of.get, outer_keys))
        if all(matched):
            outer_idx, hit_buckets = None, matched
        else:
            outer_idx = list(compress(range(len(matched)), matched))
            hit_buckets = list(compress(matched, matched))
        return (
            ColumnBatch.from_join(
                outer, inner, False, outer_idx, hit_buckets, sum(map(len, hit_buckets))
            ),
            matches,
        )
    # Inner-major: every fetched inner row beside its outer bucket.
    buckets: Dict[object, List[int]] = {}
    for i, key in enumerate(outer_keys):
        if not _key_is_null(key, composite):
            buckets.setdefault(key, []).append(i)
    hits = [
        (positions, buckets[key]) for key, positions in inner_of.items() if key in buckets
    ]
    length = sum(len(positions) * len(bucket) for positions, bucket in hits)
    if len(hits) == 1:  # one key: its positions are ascending already
        inner_idx, bucket = hits[0]
        hit_buckets = [bucket] * len(inner_idx)
    else:
        bucket_at: Dict[int, List[int]] = {}
        for positions, bucket in hits:
            bucket_at.update(zip(positions, repeat(bucket)))
        inner_idx = sorted(bucket_at)
        hit_buckets = list(map(bucket_at.__getitem__, inner_idx))
    if len(inner_idx) == len(inner):
        inner_idx = None
    return (
        ColumnBatch.from_join(outer, inner, True, inner_idx, hit_buckets, length),
        matches,
    )


def _index_on(catalog: Catalog, table_name: str, column: str):
    """The index a plan probes on ``table_name.column`` (raises when missing)."""
    index = catalog.indexes(table_name).get(column)
    if index is None:
        raise ExecutionError(
            f"plan requires an index on {table_name}.{column} that does not exist"
        )
    return index


def _row_locator(row_ids: Sequence[int]) -> Callable[[List[int]], List[int]]:
    """Map ascending fetched row ids to their positions in a scan's output.

    ``row_ids`` (the scan's, ascending) is a ``range`` when the scan kept
    every row of a contiguous span: positions are offsets.  Otherwise the
    scan's row ids are mapped to positions once.  Row ids the scan did not
    keep are dropped.
    """
    if isinstance(row_ids, range):
        start, stop = row_ids.start, row_ids.stop
        if start == 0:
            return lambda fetched: (
                list(fetched)  # a copy: the index keeps its own list
                if not fetched or fetched[-1] < stop
                else [row_id for row_id in fetched if row_id < stop]
            )
        return lambda fetched: [
            row_id - start for row_id in fetched if start <= row_id < stop
        ]
    position_of = dict(zip(row_ids, range(len(row_ids))))
    return lambda fetched: [
        position for position in map(position_of.get, fetched) if position is not None
    ]


def cross_join_results(
    left: ColumnBatch,
    right: ColumnBatch,
    observed: Optional[Dict[str, int]] = None,
) -> ColumnBatch:
    """Cartesian product of two batches via repeated/tiled index vectors.

    Left-major row order, matching the reference engine exactly; only the
    two selection vectors are materialized, never the payload columns.
    """
    left = ColumnBatch.from_result(left)
    right = ColumnBatch.from_result(right)
    if observed is not None:
        observed["build_rows"] = min(len(left), len(right))
        observed["probe_rows"] = max(len(left), len(right))
    right_count = len(right)
    left_idx = [i for i in range(len(left)) for _ in range(right_count)]
    right_idx = list(range(right_count)) * len(left)
    return ColumnBatch.concat(left.restrict(left_idx), right.restrict(right_idx))


def filter_result(result: ColumnBatch, predicates: Sequence) -> ColumnBatch:
    """Apply filter expressions by narrowing the selection vectors."""
    result = ColumnBatch.from_result(result)
    predicate = compile_batch_conjunction(list(predicates), result.resolver)
    if predicate is None:
        return result
    return result.restrict(predicate(result))


def empty_result(columns: Sequence[QualifiedColumn]) -> ColumnBatch:
    """An empty batch with the given column layout (pruned subtrees)."""
    return ColumnBatch(columns, [[] for _ in columns], length=0)


def _fold_column(item: SelectItem, values: List[object]) -> object:
    """Fold one ungrouped aggregate over a compacted column.

    Deliberately implemented independently of the reference oracle's
    ``fold_aggregate`` (generator folds here, list folds there) so the
    differential suite cross-checks the SQL NULL-semantics rules — NULLs are
    skipped, SUM/AVG over an empty or all-NULL input return NULL, COUNT
    returns 0 — instead of both engines sharing one implementation.
    ``SUM``/``AVG`` accumulate in input order, which keeps float results
    bit-identical with the oracle.  ``MIN``/``MAX`` return the first of equal
    extremes, as the builtins do, so ``values`` may drop later repeats of a
    row (:meth:`ColumnBatch.matched_columns`).  The builtin takes the column
    as it is; only when a NULL makes it raise does the skipping pass run.
    """
    if item.aggregate is AggregateFunc.COUNT:
        return sum(1 for v in values if v is not None)
    if item.aggregate in (AggregateFunc.MIN, AggregateFunc.MAX):
        extreme = min if item.aggregate is AggregateFunc.MIN else max
        try:
            return extreme(values, default=None)
        except TypeError:  # a NULL among the values compares with nothing
            return extreme((v for v in values if v is not None), default=None)
    if item.aggregate in (AggregateFunc.SUM, AggregateFunc.AVG):
        total = None
        count = 0
        for value in values:
            if value is None:
                continue
            total = value if total is None else total + value
            count += 1
        if item.aggregate is AggregateFunc.SUM or total is None:
            return total
        return total / count
    # Bare column inside an aggregate context (legacy direct-operator use).
    return next((v for v in values if v is not None), None)


def _item_values(result: ColumnBatch, item: SelectItem) -> List[object]:
    """Compacted per-row values of one select item's expression."""
    ref = item.column
    if ref is not None:
        return result.column_values(ref.alias, ref.column)
    return compile_batch_scalar(item.expr, result.resolver)(result, None)


def aggregate_result(
    result: ColumnBatch, select_items: Sequence[SelectItem]
) -> ColumnBatch:
    """Apply the final (ungrouped) aggregation / projection column-wise.

    Computed select items evaluate through the batch expression compiler
    (one pass per tree node over the compacted columns); bare columns keep
    the zero-copy projection path.
    """
    if not select_items:
        return result
    result = ColumnBatch.from_result(result)
    has_aggregate = any(item.aggregate is not None for item in select_items)
    columns = output_columns(select_items)
    if has_aggregate:
        folded = [item for item in select_items if item.expr is not None]
        if all(
            item.column is not None
            and item.aggregate in (AggregateFunc.MIN, AggregateFunc.MAX)
            for item in folded
        ):
            # Duplicate-insensitive folds (and COUNT(*), a length) need the
            # rows that matched, not the pairs: a join below stays factorized.
            inputs = result.matched_columns(
                [
                    result.column_position(item.column.alias, item.column.column)
                    for item in folded
                ]
            )
        else:  # one column at a time
            inputs = (_item_values(result, item) for item in folded)
        folds = map(_fold_column, folded, inputs)
        row = [len(result) if item.expr is None else next(folds) for item in select_items]
        return ColumnBatch.from_rows(columns, [tuple(row)])
    if all(item.column is not None for item in select_items):
        positions = [
            result.column_position(item.column.alias, item.column.column)
            for item in select_items
        ]
        return result.with_columns(columns, positions)
    # Computed projection columns: materialize each item's value list once.
    data = [_item_values(result, item) for item in select_items]
    return ColumnBatch(columns, data, length=len(result))


def group_aggregate_result(
    result: ColumnBatch,
    group_keys: Sequence[ColumnRef],
    select_items: Sequence[SelectItem],
) -> ColumnBatch:
    """Grouped aggregation over compacted key columns.

    One ``Counter`` over the key column (composite keys: their tuples) gives
    the groups in first-appearance order (NULL keys form their own group)
    and ``COUNT(*)``.  A group-key output column is read off the Counter's
    keys: a dict keeps the first key object it saw, so first-of-equals such
    as ``0.0``/``-0.0`` stays byte-identical.  Per-row group ids are built
    only when an aggregate folds a column; a computed non-aggregate item
    reads each group's first row.  Output order and values mirror the
    reference engine exactly.
    """
    result = ColumnBatch.from_result(result)
    key_columns = [result.column_values(ref.alias, ref.column) for ref in group_keys]
    keys = key_columns[0] if len(key_columns) == 1 else list(zip(*key_columns))
    counts = Counter(keys)
    num_groups = len(counts)
    group_ids: Optional[List[int]] = None

    out_data: List[List[object]] = []
    for item in select_items:
        if item.expr is None:  # COUNT(*): rows per group
            out_data.append(list(counts.values()))
        elif item.aggregate is None and item.column in group_keys:
            if len(group_keys) == 1:
                out_data.append(list(counts))
            else:
                position = group_keys.index(item.column)
                out_data.append(list(map(itemgetter(position), counts)))
        elif item.aggregate is None:
            # Depends only on group keys (binder rule): the group's first
            # row represents it.  Walking the rows backwards leaves each key
            # mapped to its first row.
            first_row = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
            values = _item_values(result, item)
            out_data.append([values[first_row[key]] for key in counts])
        else:
            if group_ids is None:
                index = dict(zip(counts, range(num_groups)))
                group_ids = list(map(index.__getitem__, keys))
            out_data.append(
                _fold_grouped(
                    item.aggregate, group_ids, _item_values(result, item), num_groups
                )
            )
    return ColumnBatch(output_columns(select_items), out_data, length=num_groups)


def _fold_grouped(
    aggregate: AggregateFunc,
    group_ids: List[int],
    values: List[object],
    num_groups: int,
) -> List[object]:
    """Fold one aggregate column-wise into per-group accumulator slots.

    Accumulation happens in input-row order per group — the same order the
    reference oracle folds its per-group row lists — so SUM/AVG float
    results are bit-identical across engines.
    """
    if aggregate is AggregateFunc.COUNT:
        counts = [0] * num_groups
        for gid, value in zip(group_ids, values):
            if value is not None:
                counts[gid] += 1
        return counts
    accumulator: List[object] = [None] * num_groups
    if aggregate in (AggregateFunc.SUM, AggregateFunc.AVG):
        tallies = [0] * num_groups
        for gid, value in zip(group_ids, values):
            if value is not None:
                current = accumulator[gid]
                accumulator[gid] = value if current is None else current + value
                tallies[gid] += 1
        if aggregate is AggregateFunc.SUM:
            return accumulator
        return [
            None if total is None else total / count
            for total, count in zip(accumulator, tallies)
        ]
    if aggregate is AggregateFunc.MIN:
        for gid, value in zip(group_ids, values):
            if value is not None:
                current = accumulator[gid]
                if current is None or value < current:
                    accumulator[gid] = value
        return accumulator
    for gid, value in zip(group_ids, values):  # MAX
        if value is not None:
            current = accumulator[gid]
            if current is None or value > current:
                accumulator[gid] = value
    return accumulator


def sort_result(
    result: ColumnBatch,
    keys: Sequence[BoundSortKey],
    tie_break: Sequence = (),
    tie_break_all: bool = False,
) -> ColumnBatch:
    """Sort the batch on the given keys (multi-pass stable sort, zero-copy).

    One stable pass per key, last key first (:func:`_sort_pass`): NULLS LAST
    for ascending keys and NULLS FIRST for descending, ties in input order.
    The reference oracle reaches the same ordering through an independent
    comparator-based sort; the differential suite pins the two against each
    other.

    ``tie_break`` (expressions over the sort input) or ``tie_break_all``
    (every input column, positionally) appends a deterministic total order
    *below* the declared keys: tie passes run first, ascending NULLS LAST,
    so rows equal on all declared keys no longer depend on input order.  The
    planner sets these only under ``LIMIT``, where the cut would otherwise
    expose plan-dependent tie order.
    """
    result = ColumnBatch.from_result(result)
    order = list(range(len(result)))
    if tie_break_all:
        tie_columns = [result.values(p) for p in range(len(result.columns))]
    else:
        tie_columns = [
            compile_batch_scalar(expr, result.resolver)(result, None)
            for expr in tie_break
        ]
    for values in reversed(tie_columns):
        order = _sort_pass(order, values, ascending=True)
    for key in reversed(keys):
        values = result.column_values(key.alias, key.column)
        order = _sort_pass(order, values, key.ascending)
    return result.restrict(order)


def _sort_pass(order: List[int], values: Sequence, ascending: bool) -> List[int]:
    """Stably reorder the row positions ``order`` on ``values[position]``.

    The sort key is ``values.__getitem__``, so no Python code runs per row.
    A column holding a NULL is split first: the non-NULL rows are sorted,
    the NULL rows keep their input order and go last ascending, first
    descending.  ``reverse`` keeps ties in input order, so rows whose values
    compare equal (``0.0``/``-0.0``, ``1``/``True``) stay as they came.
    """
    if None not in values:
        order.sort(key=values.__getitem__, reverse=not ascending)
        return order
    null = list(map(is_, map(values.__getitem__, order), repeat(None)))
    nulls = list(compress(order, null))
    order = list(compress(order, map(not_, null)))
    order.sort(key=values.__getitem__, reverse=not ascending)
    return order + nulls if ascending else nulls + order


def limit_result(result: ColumnBatch, limit: int, offset: int = 0) -> ColumnBatch:
    """Apply LIMIT/OFFSET by narrowing the selection vectors."""
    result = ColumnBatch.from_result(result)
    start = min(max(0, offset), len(result))
    end = min(start + max(0, limit), len(result))
    return result.restrict(list(range(start, end)))


def distinct_result(result: ColumnBatch) -> ColumnBatch:
    """Keep the first occurrence of every distinct row (selection-vector only)."""
    result = ColumnBatch.from_result(result)
    seen = set()
    keep: List[int] = []
    for i, row in enumerate(result.rows):
        if row not in seen:
            seen.add(row)
            keep.append(i)
    return result.restrict(keep)
