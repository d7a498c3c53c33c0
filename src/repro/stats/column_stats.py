"""Per-column and per-table statistics containers produced by ANALYZE."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

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
    """

    column: str
    col_type: ColumnType
    null_fraction: float
    n_distinct: int
    mcv: Optional[MostCommonValues] = None
    histogram: Optional[EquiDepthHistogram] = None
    min_value: Optional[object] = None
    max_value: Optional[object] = None

    @property
    def non_null_fraction(self) -> float:
        """Fraction of rows that are not NULL."""
        return 1.0 - self.null_fraction


@dataclass
class TableStats:
    """Statistics for one table: its row count and per-column statistics."""

    table: str
    row_count: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column_stats(self, column: str) -> Optional[ColumnStats]:
        """Statistics for ``column`` (``None`` if the column was not analyzed)."""
        return self.columns.get(column)
