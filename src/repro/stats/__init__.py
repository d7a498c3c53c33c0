"""Statistics subsystem: histograms, MCV lists, ANALYZE."""

from repro.stats.analyze import analyze_table
from repro.stats.column_stats import ColumnStats, TableStats
from repro.stats.histogram import EquiDepthHistogram
from repro.stats.mcv import MostCommonValues

__all__ = [
    "ColumnStats",
    "EquiDepthHistogram",
    "MostCommonValues",
    "TableStats",
    "analyze_table",
]
