"""Late-materializing sequential scans of the vectorized engine.

Every sequential scan goes through :func:`scan_shards`, which walks the
table's unpruned :class:`~repro.storage.partition.Partition` shards (an
unpartitioned table has one, and nothing pruned) and runs a three-stage
pipeline per shard — filter first, decode last:

1. **Segment skipping** — each filter conjunct (in negation normal form) is
   tested against per-:data:`~repro.storage.compression.BLOCK_ROWS`-block
   min/max/null-count synopses sealed into the segments at compress time,
   reusing :func:`repro.optimizer.pruning.may_match`'s three-valued
   refutation.  Provably dead blocks never enter the candidate set, so no
   kernel and no decode ever touches them.  A conjunct participates only
   when *every* column it references has sealed block statistics.
2. **Compressed-domain kernels** — a conjunct referencing exactly one
   sealed column evaluates on the encoded form: once per dictionary entry
   on a :class:`~repro.storage.compression.DictionarySegment` (a code-level
   match set mapped over the codes) and once per run on an
   :class:`~repro.storage.compression.RLESegment`.  The per-value verdict
   comes from :func:`repro.executor.expressions.compile_value_predicate`,
   i.e. the very same compiled predicate the decode path would apply per
   row, so the keep set is bit-identical by construction.
3. **Decode-path residual** — everything else (multi-column conjuncts,
   plain/open columns, shapes the value compiler rejects) decodes only the
   columns it references and runs through
   :func:`repro.executor.expressions.compile_batch_conjunction`, the same
   batch compiler join residuals use, with the surviving candidates
   threaded through it.

Nothing is compiled or normalized for a stage that has no sealed column to
work on, so a scan of open storage pays for the residual compiler only.

A scan of one shard whose projected columns are all open (every scan of an
unpartitioned table) stays zero-copy: the batch wraps the shard's backing
lists and the survivors are a selection vector.  Otherwise surviving rows
materialize **only the projected columns**
(:class:`~repro.optimizer.plan.ScanNode.columns`); shards concatenate in
partition order, reproducing the global row-id order every engine
produces.  An index scan's rows (:func:`scan_rows`) are a selection over
the table's gathered columns.  Every scan's batch records which global row
ids it holds (:meth:`~repro.executor.batch.ColumnBatch.row_ids`), so an
index nested-loop join above it can tell which fetched rows the scan kept.  The
two counters reported through ``observed`` —
``segments_skipped`` (refuted blocks) and ``columns_decoded`` (distinct
columns materialized) — are derived from row counts and sealed statistics
only, hence engine-invariant, like all work accounting.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.executor.batch import ColumnBatch
from repro.executor.expressions import (
    compile_batch_conjunction,
    compile_value_predicate,
)
from repro.optimizer.pruning import may_match
from repro.optimizer.rewrite import push_not_down
from repro.sql.ast import Expr
from repro.storage.compression import (
    BLOCK_ROWS,
    DictionarySegment,
    RLESegment,
)
from repro.storage.partition import ColumnZone, Partition, ZoneMap

__all__ = ["projected_names", "scan_rows", "scan_shards"]


def projected_names(schema, columns: Optional[Sequence[str]]) -> List[str]:
    """The scan's output column names, in schema order.

    ``columns`` is the plan's projection-pushdown set (``None`` = full
    width); unknown names are ignored so stale cached plans degrade to a
    narrower-but-valid scan rather than an error.
    """
    if columns is None:
        return list(schema.column_names)
    wanted = set(columns)
    return [name for name in schema.column_names if name in wanted]


class _CompiledFilters:
    """Per-scan view of the filter conjunction (shared by all shards).

    The negation normal forms and the per-value predicates are built on
    first use: only a shard with sealed columns needs them.
    """

    def __init__(self, alias: str, filters: Sequence[Expr], schema) -> None:
        self.alias = alias
        self.schema = schema
        self.filters = list(filters)
        self.ref_names: List[Tuple[str, ...]] = [
            tuple(
                dict.fromkeys(
                    ref.column
                    for ref in conjunct.referenced_columns()
                    if ref.alias == alias
                )
            )
            for conjunct in self.filters
        ]
        self.positions = {
            name: schema.column_index(name)
            for names in self.ref_names
            for name in names
        }
        self._normalized: Optional[List[Expr]] = None
        self._value_predicates: Dict[int, Optional[Callable[[object], bool]]] = {}

    def normalized(self, index: int) -> Expr:
        """Conjunct ``index`` in negation normal form."""
        if self._normalized is None:
            self._normalized = [push_not_down(conjunct) for conjunct in self.filters]
        return self._normalized[index]

    def value_predicate(self, index: int) -> Optional[Callable[[object], bool]]:
        """Per-value form of single-column conjunct ``index`` (``None``: none)."""
        if index not in self._value_predicates:
            self._value_predicates[index] = compile_value_predicate(
                self.filters[index], self.alias, self.ref_names[index][0]
            )
        return self._value_predicates[index]


def _block_zone_maps(
    partition: Partition,
    compiled: _CompiledFilters,
) -> Tuple[List[Tuple[int, int]], int]:
    """Candidate row ranges after segment skipping, plus the skipped count.

    Only conjuncts whose referenced columns all carry sealed block
    statistics participate; a block survives unless some participating
    conjunct is provably never TRUE over it (the same 3VL refutation as
    partition pruning, one block at a time).
    """
    row_count = partition.row_count
    stats_for: Dict[str, Optional[list]] = {}
    for name, position in compiled.positions.items():
        segment = partition.segment_at(position)
        stats_for[name] = segment.block_stats() if segment is not None else None
    usable = [
        (compiled.normalized(index), names)
        for index, names in enumerate(compiled.ref_names)
        if names and all(stats_for[name] is not None for name in names)
    ]
    ranges: List[Tuple[int, int]] = []
    skipped = 0
    if not usable:
        return [(0, row_count)], 0
    for start in range(0, row_count, BLOCK_ROWS):
        end = min(start + BLOCK_ROWS, row_count)
        block = start // BLOCK_ROWS
        refuted = False
        for normalized, names in usable:
            zones: Dict[str, ColumnZone] = {}
            have_stats = True
            for name in names:
                entry = stats_for[name][block]
                if entry is None:
                    # Mixed-type block: no synopsis, keep conservatively.
                    have_stats = False
                    break
                zones[name] = ColumnZone(entry[0], entry[1], entry[2])
            if not have_stats:
                continue
            zone_map = ZoneMap(row_count=end - start, columns=zones)
            if not may_match(normalized, zone_map):
                refuted = True
                break
        if refuted:
            skipped += 1
        else:
            ranges.append((start, end))
    return ranges, skipped


def _dictionary_filter(
    segment: DictionarySegment,
    predicate: Callable[[object], bool],
    candidates: Optional[List[int]],
    row_count: int,
) -> Optional[List[int]]:
    """Apply a single-column conjunct in the code domain: |dict| evaluations."""
    dictionary = segment.dictionary
    match = {
        code for code, value in enumerate(dictionary) if predicate(value)
    }
    if len(match) == len(dictionary):
        return candidates  # every entry passes: no narrowing
    if not match:
        return []
    codes = segment.codes
    if candidates is None:
        return [i for i in range(row_count) if codes[i] in match]
    return [i for i in candidates if codes[i] in match]


def _rle_filter(
    segment: RLESegment,
    predicate: Callable[[object], bool],
    candidates: Optional[List[int]],
) -> List[int]:
    """Apply a single-column conjunct in the run domain: |runs| evaluations."""
    runs = segment.runs
    verdicts = [predicate(value) for value, _ in runs]
    out: List[int] = []
    if candidates is None:
        row = 0
        for (_, count), keep in zip(runs, verdicts):
            if keep:
                out.extend(range(row, row + count))
            row += count
        return out
    # Walk candidates (ascending) and the run boundaries in lockstep.
    pointer = 0
    run_end = runs[0][1] if runs else 0
    for i in candidates:
        while i >= run_end:
            pointer += 1
            run_end += runs[pointer][1]
        if verdicts[pointer]:
            out.append(i)
    return out


def _materialize(
    partition: Partition, position: int, indices: Optional[List[int]]
) -> List[object]:
    """Values of one column at the surviving rows (or the whole column)."""
    segment = partition.segment_at(position)
    if indices is None:
        return partition.column_at(position)
    if segment is not None:
        return segment.gather(indices)
    values = partition.column_at(position)
    return [values[i] for i in indices]


def _ranges_to_indices(ranges: List[Tuple[int, int]]) -> List[int]:
    out: List[int] = []
    for start, end in ranges:
        out.extend(range(start, end))
    return out


def _shard_candidates(
    partition: Partition, compiled: _CompiledFilters
) -> Tuple[Optional[List[int]], int, Set[str]]:
    """Run the skip -> compressed-domain -> residual filter over one shard.

    Returns ``(survivors, blocks skipped, columns the residual decoded)``;
    survivors are ascending local row ids, ``None`` when every row passes.
    """
    row_count = partition.row_count
    decoded: Set[str] = set()
    if row_count == 0:
        return [], 0, decoded

    ranges, skipped = _block_zone_maps(partition, compiled)
    candidates: Optional[List[int]]
    candidates = None if not skipped else _ranges_to_indices(ranges)

    residual_positions: List[int] = []
    for index, names in enumerate(compiled.ref_names):
        if candidates is not None and not candidates:
            return candidates, skipped, decoded
        segment = None
        if len(names) == 1:
            segment = partition.segment_at(compiled.positions[names[0]])
        predicate = None
        if isinstance(segment, (DictionarySegment, RLESegment)):
            predicate = compiled.value_predicate(index)
        if predicate is None:
            residual_positions.append(index)
        elif isinstance(segment, DictionarySegment):
            candidates = _dictionary_filter(
                segment, predicate, candidates, row_count
            )
        else:
            candidates = _rle_filter(segment, predicate, candidates)

    if residual_positions and not (candidates is not None and not candidates):
        residual = [compiled.filters[i] for i in residual_positions]
        needed: Set[str] = set()
        for i in residual_positions:
            needed.update(compiled.ref_names[i])
        residual_names = [
            name for name in compiled.schema.column_names if name in needed
        ]
        decoded.update(residual_names)
        batch = ColumnBatch(
            [(compiled.alias, name) for name in residual_names],
            [partition.column_at(compiled.positions[name]) for name in residual_names],
            length=row_count,
        )
        candidates = compile_batch_conjunction(residual, batch.resolver)(
            batch, candidates
        )
    return candidates, skipped, decoded


def scan_shards(
    table,
    alias: str,
    filters: Sequence[Expr],
    pruned_partitions: Sequence[int],
    columns: Optional[Sequence[str]],
    observed: Optional[Dict[str, int]] = None,
) -> Tuple[ColumnBatch, int]:
    """Late-materializing sequential scan of a table's unpruned shards.

    Shard results concatenate in partition order.  Returns ``(batch,
    rows_fetched)`` with ``rows_fetched`` the unpruned shards' row sum —
    segment skipping changes decode work, never work accounting.
    """
    schema = table.schema
    names = projected_names(schema, columns)
    positions = [schema.column_index(name) for name in names]
    qualified = [(alias, name) for name in names]
    pruned = set(pruned_partitions)
    kept: List[Tuple[int, Partition]] = []  # (global row id of row 0, shard)
    offset = 0
    for index, partition in enumerate(table.partitions()):
        if index not in pruned:
            kept.append((offset, partition))
        offset += partition.row_count
    rows_fetched = sum(partition.row_count for _, partition in kept)

    filters = list(filters)
    if not filters:
        if not pruned:
            if columns is None:
                data = table.column_data()
            else:
                data = [table.gathered_column(position) for position in positions]
        else:
            data = [[] for _ in positions]
            for _, partition in kept:
                for accumulator, position in zip(data, positions):
                    accumulator.extend(partition.column_at(position))
        if observed is not None and columns is not None:
            observed["columns_decoded"] = len(names)
        parts = (
            [(start, range(partition.row_count)) for start, partition in kept]
            if pruned
            else [(0, range(rows_fetched))]
        )
        return (
            ColumnBatch(qualified, data, length=rows_fetched, scan_parts=parts),
            rows_fetched,
        )

    compiled = _CompiledFilters(alias, filters, schema)
    skipped_total = 0
    decoded_all: Set[str] = set()
    if len(kept) == 1 and all(kept[0][1].segment_at(p) is None for p in positions):
        # One shard of open columns: wrap its lists, narrow by selection.
        start, shard = kept[0]
        candidates, skipped_total, decoded_all = _shard_candidates(shard, compiled)
        if candidates is None:
            candidates = range(shard.row_count)
            sels = None
        else:
            sels = [candidates] * len(positions)
        batch = ColumnBatch(
            qualified,
            [shard.column_at(position) for position in positions],
            sels,
            length=len(candidates),
            scan_parts=[(start, candidates)],
        )
    else:
        out: List[List[object]] = [[] for _ in positions]
        parts: List[Tuple[int, Sequence[int]]] = []
        for start, partition in kept:
            candidates, skipped, decoded = _shard_candidates(partition, compiled)
            for accumulator, position in zip(out, positions):
                accumulator.extend(_materialize(partition, position, candidates))
            skipped_total += skipped
            decoded_all.update(decoded)
            parts.append(
                (start, range(partition.row_count) if candidates is None else candidates)
            )
        batch = ColumnBatch(
            qualified, out, length=len(out[0]) if out else 0, scan_parts=parts
        )
    if any(partition.row_count for _, partition in kept):
        decoded_all.update(names)
    if observed is not None:
        observed["segments_skipped"] = skipped_total
        observed["columns_decoded"] = len(decoded_all)
    return batch, rows_fetched


def scan_rows(
    table,
    alias: str,
    row_ids: List[int],
    filters: Sequence[Expr],
    columns: Optional[Sequence[str]],
) -> ColumnBatch:
    """An index scan's output: the rows at ``row_ids`` (ascending) that pass
    ``filters``, as a selection over the table's gathered columns."""
    names = projected_names(table.schema, columns)
    qualified = [(alias, name) for name in names]
    table_data = table.column_data()
    data = [table_data[table.schema.column_index(name)] for name in names]
    fetched = ColumnBatch(qualified, data, [row_ids] * len(data), len(row_ids))
    predicate = compile_batch_conjunction(list(filters), fetched.resolver)
    if predicate is not None:
        row_ids = [row_ids[i] for i in predicate(fetched)]
    return ColumnBatch(
        qualified, data, [row_ids] * len(data), len(row_ids), scan_parts=[(0, row_ids)]
    )
