"""Late-materializing partitioned scans of the vectorized engine.

The vectorized engine scans partitioned tables through
:func:`scan_partitioned`, which runs a three-stage pipeline per shard —
filter first, decode last:

1. **Segment skipping** — each filter conjunct (in negation normal form) is
   tested against per-:data:`~repro.storage.compression.BLOCK_ROWS`-block
   min/max/null-count synopses sealed into the segments at compress time,
   reusing :func:`repro.optimizer.pruning.may_match`'s three-valued
   refutation.  Provably dead blocks never enter the candidate set, so no
   kernel and no decode ever touches them.  A conjunct participates only
   when *every* column it references has sealed block statistics.
2. **Compressed-domain kernels** — a conjunct referencing exactly one
   column evaluates on the encoded form: once per dictionary entry on a
   :class:`~repro.storage.compression.DictionarySegment` (a code-level
   match set mapped over the codes) and once per run on an
   :class:`~repro.storage.compression.RLESegment`.  The per-value verdict
   comes from :func:`repro.executor.expressions.compile_value_predicate`,
   i.e. the very same compiled predicate the decode path would apply per
   row, so the keep set is bit-identical by construction.
3. **Decode-path residual** — everything else (multi-column conjuncts,
   plain/open columns, shapes the value compiler rejects) decodes only the
   columns it references and runs through the fused filter kernel (with the
   surviving candidates threaded through its ``_cand`` parameter) or the
   per-node batch compiler as a fallback.

Surviving rows then materialize **only the projected columns**
(:class:`~repro.optimizer.plan.ScanNode.columns`); partitions concatenate
in partition order, reproducing the global row-id order every engine
produces.  The two counters reported through ``observed`` —
``segments_skipped`` (refuted blocks) and ``columns_decoded`` (distinct
columns materialized) — are derived from row counts and sealed statistics
only, hence engine-invariant, like all work accounting.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.executor.batch import ColumnBatch
from repro.executor.expressions import (
    ColumnResolver,
    compile_batch_predicate,
    compile_fused_filter,
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

__all__ = ["projected_names", "scan_partitioned"]


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
    """Per-scan compilation of the filter conjunction (shared by all shards)."""

    def __init__(self, alias: str, filters: Sequence[Expr], schema) -> None:
        self.filters = list(filters)
        self.normalized = [push_not_down(conjunct) for conjunct in self.filters]
        self.ref_names: List[Tuple[str, ...]] = []
        self.value_predicates: List[Optional[Callable[[object], bool]]] = []
        for conjunct in self.filters:
            names = tuple(
                dict.fromkeys(
                    ref.column
                    for ref in conjunct.referenced_columns()
                    if ref.alias == alias
                )
            )
            self.ref_names.append(names)
            predicate = None
            if len(names) == 1:
                predicate = compile_value_predicate(conjunct, alias, names[0])
            self.value_predicates.append(predicate)
        self.alias = alias
        self.schema = schema
        self.positions = {
            name: schema.column_index(name)
            for names in self.ref_names
            for name in names
        }


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
        (normalized, names)
        for normalized, names in zip(compiled.normalized, compiled.ref_names)
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


def _scan_one_partition(
    partition: Partition,
    compiled: _CompiledFilters,
    positions: Sequence[int],
    names: Sequence[str],
) -> Tuple[List[List[object]], int, Set[str]]:
    """Run the skip -> compressed-domain -> decode pipeline over one shard.

    Returns ``(projected survivor columns, blocks skipped, columns decoded)``.
    Survivors stay in ascending local row order, so concatenating shard
    results in partition order reproduces the classic gather-then-filter
    row order bit for bit.
    """
    row_count = partition.row_count
    decoded: Set[str] = set()
    if row_count == 0:
        return [[] for _ in positions], 0, decoded

    ranges, skipped = _block_zone_maps(partition, compiled)
    candidates: Optional[List[int]]
    candidates = None if not skipped else _ranges_to_indices(ranges)

    residual_positions: List[int] = []
    for index, predicate in enumerate(compiled.value_predicates):
        if candidates is not None and not candidates:
            break
        segment = None
        if predicate is not None:
            name = compiled.ref_names[index][0]
            segment = partition.segment_at(compiled.positions[name])
        if isinstance(segment, DictionarySegment):
            candidates = _dictionary_filter(
                segment, predicate, candidates, row_count
            )
        elif isinstance(segment, RLESegment):
            candidates = _rle_filter(segment, predicate, candidates)
        else:
            residual_positions.append(index)

    if residual_positions and not (candidates is not None and not candidates):
        residual = [compiled.filters[i] for i in residual_positions]
        needed: Set[str] = set()
        for i in residual_positions:
            needed.update(compiled.ref_names[i])
        residual_names = [
            name for name in compiled.schema.column_names if name in needed
        ]
        decoded.update(residual_names)
        qualified = [(compiled.alias, name) for name in residual_names]
        data = [
            partition.column_at(compiled.positions[name])
            for name in residual_names
        ]
        resolver = ColumnResolver(qualified)
        kernel = compile_fused_filter(residual, resolver)
        if kernel is not None:
            candidates = kernel(data, 0, row_count, candidates)
        else:
            batch = ColumnBatch(qualified, data, length=row_count)
            for conjunct in residual:
                check = compile_batch_predicate(conjunct, resolver)
                candidates = check(batch, candidates)
                if not candidates:
                    break

    decoded.update(names)
    out = [_materialize(partition, position, candidates) for position in positions]
    return out, skipped, decoded


def scan_partitioned(
    table,
    alias: str,
    filters: Sequence[Expr],
    pruned_partitions: Sequence[int],
    columns: Optional[Sequence[str]],
    observed: Optional[Dict[str, int]] = None,
) -> Tuple[ColumnBatch, int]:
    """Late-materializing scan of a partitioned table's unpruned shards.

    Shard results concatenate in partition order.  Returns ``(batch,
    rows_fetched)`` with ``rows_fetched`` the unpruned shards' row sum —
    segment skipping changes decode work, never work accounting.
    """
    schema = table.schema
    names = projected_names(schema, columns)
    positions = [schema.column_index(name) for name in names]
    qualified = [(alias, name) for name in names]
    pruned = set(pruned_partitions)
    kept = [
        partition
        for index, partition in enumerate(table.partitions())
        if index not in pruned
    ]
    rows_fetched = sum(partition.row_count for partition in kept)

    filters = list(filters)
    if not filters:
        if not pruned:
            if columns is None:
                data = table.column_data()
            else:
                data = [table.gathered_column(position) for position in positions]
        else:
            data = [[] for _ in positions]
            for partition in kept:
                for accumulator, position in zip(data, positions):
                    accumulator.extend(partition.column_at(position))
        if observed is not None and columns is not None:
            observed["columns_decoded"] = len(names)
        return ColumnBatch(qualified, data, length=rows_fetched), rows_fetched

    compiled = _CompiledFilters(alias, filters, schema)
    out: List[List[object]] = [[] for _ in positions]
    skipped_total = 0
    decoded_all: Set[str] = set()
    for partition in kept:
        columns_part, skipped, decoded = _scan_one_partition(
            partition, compiled, positions, names
        )
        for accumulator, part in zip(out, columns_part):
            accumulator.extend(part)
        skipped_total += skipped
        decoded_all.update(decoded)
    survivors = len(out[0]) if out else 0
    if observed is not None:
        observed["segments_skipped"] = skipped_total
        observed["columns_decoded"] = len(decoded_all)
    return ColumnBatch(qualified, out, length=survivors), rows_fetched
