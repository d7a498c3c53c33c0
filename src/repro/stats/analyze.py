"""ANALYZE: build table and column statistics from stored data.

The paper sets PostgreSQL's ``default_statistics_target`` to its maximum so
that the optimizer has the best statistics the standard mechanism can
provide; estimation errors therefore stem from the *model* (independence and
uniformity assumptions), not from stale or coarse statistics.  We follow the
same philosophy: null fraction, distinct count, MCV list, histogram bounds,
minimum and maximum are computed over every stored value of the column —
from one occurrence count and one sort of its distinct values — so every
estimation error produced by :mod:`repro.optimizer.cardinality` is a model
error.

One column at a time, each shard's values are counted once
(:meth:`~repro.storage.table.Table.column_counts`; a shard's zone of the
column comes from the same count, for
:meth:`~repro.engine.database.Database.analyze` to install as its zone map)
and the shards' counts are merged in shard order, which is the count of the
gathered column: same first-appearance order, same first key objects.  A
sealed column is counted through its segment — a dictionary's codes, an RLE
segment's runs — so a re-ANALYZE of a compressed table decodes nothing.  No
column is gathered across shards, and no stored row is read: ANALYZE keeps
no row sample.
"""

from __future__ import annotations

from collections import Counter
from typing import Collection, Dict, Iterable, Optional, Sequence

from repro.catalog.schema import ColumnType
from repro.stats.column_stats import ColumnStats, TableStats
from repro.stats.histogram import EquiDepthHistogram
from repro.stats.mcv import MostCommonValues
from repro.storage.partition import ColumnZone
from repro.storage.table import Table


def analyze_table(
    table: Table,
    statistics_target: int = 100,
    only: Optional[Collection[str]] = None,
    zones: Optional[Sequence[Dict[str, ColumnZone]]] = None,
) -> TableStats:
    """Build :class:`~repro.stats.column_stats.TableStats` for one table.

    Args:
        table: the storage object to analyze (any layout, or a snapshot).
        statistics_target: maximum MCV entries and histogram buckets per
            column (named after PostgreSQL's ``default_statistics_target``).
        only: analyze just these columns (``None``: all).  For a table whose
            only reader is known, e.g. a re-optimization round's temporary
            table; the row count is whole either way.
        zones: one dict per shard, filled with the zone of each analyzed
            column of each shard that keeps a zone map, taken from the same
            count (what :meth:`~repro.storage.table.Table.refresh_zone_maps`
            installs).
    """
    stats = TableStats(table=table.name, row_count=table.row_count)
    for position, col_def in enumerate(table.schema.columns):
        if only is None or col_def.name in only:
            stats.columns[col_def.name] = _analyze_column(
                col_def.name,
                col_def.col_type,
                table.row_count,
                _merged(table.column_counts(position, zones)),
                statistics_target,
            )
    return stats


def _merged(shard_counts: Iterable[Counter]) -> Counter:
    """The shards' counts of one column merged in shard order.

    Equal to the count of the gathered column, first-appearance order and
    first key objects included: ``dict.update`` appends keys no earlier
    shard holds in their order, ``Counter.update`` also adds to a key an
    earlier shard holds, keeping that shard's key object.  The first
    shard's Counter is merged into, not copied.
    """
    shards = iter(shard_counts)
    merged = next(shards)
    for counts in shards:
        if merged.keys().isdisjoint(counts.keys()):
            dict.update(merged, counts)
        else:
            merged.update(counts)
    return merged


def _analyze_column(
    name: str,
    col_type: ColumnType,
    row_count: int,
    counts: Counter,
    statistics_target: int,
) -> ColumnStats:
    """One column's statistics from its values' count (consumes ``counts``).

    ``counts`` must be counted in storage order: the MCV list breaks
    frequency ties by it.
    """
    non_null = row_count - counts.pop(None, 0)
    ordered = sorted(counts)
    return ColumnStats(
        column=name,
        col_type=col_type,
        null_fraction=0.0 if row_count == 0 else 1.0 - non_null / row_count,
        n_distinct=len(counts),
        mcv=MostCommonValues.from_counts(counts, max_entries=statistics_target),
        histogram=EquiDepthHistogram.from_counts(
            ordered, counts, num_buckets=statistics_target
        ),
        min_value=ordered[0] if ordered else None,
        max_value=ordered[-1] if ordered else None,
    )
