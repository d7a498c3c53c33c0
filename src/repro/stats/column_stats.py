"""Per-column and per-table statistics containers produced by ANALYZE."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.catalog.schema import ColumnType
from repro.stats.histogram import EquiDepthHistogram
from repro.stats.mcv import MostCommonValues


@dataclass
class ColumnStats:
    """Statistics for one column, mirroring PostgreSQL's ``pg_stats`` row.

    Attributes:
        column: column name.
        col_type: declared column type.
        null_fraction: fraction of rows that are NULL.
        n_distinct: number of distinct non-NULL values.
        mcv: most-common-value list (``None`` when the column is empty).
        histogram: equi-depth histogram over non-MCV values (``None`` for
            low-cardinality or non-orderable columns).
        min_value / max_value: observed extremes over non-NULL values.
        avg_width: average value width in bytes (used only by the cost model's
            memory heuristics).
    """

    column: str
    col_type: ColumnType
    null_fraction: float
    n_distinct: int
    mcv: Optional[MostCommonValues] = None
    histogram: Optional[EquiDepthHistogram] = None
    min_value: Optional[object] = None
    max_value: Optional[object] = None
    avg_width: float = 8.0

    @property
    def non_null_fraction(self) -> float:
        """Fraction of rows that are not NULL."""
        return 1.0 - self.null_fraction


@dataclass
class TableStats:
    """Statistics for one table.

    Besides the per-column statistics, ANALYZE keeps a small uniform sample
    of whole rows (tuples in schema column order) so the sampling
    estimator can evaluate arbitrary — including correlated — predicate
    conjunctions directly.  ``sample_rows`` records how many rows the
    sample was drawn from (the table size at ANALYZE time).
    """

    table: str
    row_count: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)
    sample: List[tuple] = field(default_factory=list)
    sample_rows: int = 0

    def column_stats(self, column: str) -> Optional[ColumnStats]:
        """Statistics for ``column`` (``None`` if the column was not analyzed)."""
        return self.columns.get(column)

    def n_distinct(self, column: str, default: Optional[int] = None) -> Optional[int]:
        """Distinct count of ``column`` or ``default`` if unknown."""
        stats = self.columns.get(column)
        if stats is None:
            return default
        return stats.n_distinct
