"""Unit tests for ANALYZE."""

from repro.catalog import ColumnType, make_schema
from repro.stats import analyze_table
from repro.storage import Table


def _loaded_table():
    schema = make_schema(
        "people",
        [("id", ColumnType.INT), ("name", ColumnType.TEXT), ("age", ColumnType.INT)],
        primary_key="id",
    )
    table = Table(schema)
    table.load_columns(
        [
            list(range(200)),
            [f"name{i % 20}" for i in range(200)],
            [20 + (i % 50) if i % 10 else None for i in range(200)],
        ]
    )
    return table


class TestAnalyzeTable:
    def test_row_count(self):
        stats = analyze_table(_loaded_table())
        assert stats.row_count == 200
        assert set(stats.columns) == {"id", "name", "age"}

    def test_distinct_counts(self):
        stats = analyze_table(_loaded_table())
        assert stats.column_stats("id").n_distinct == 200
        assert stats.column_stats("name").n_distinct == 20
        assert stats.column_stats("missing") is None

    def test_null_fraction(self):
        stats = analyze_table(_loaded_table())
        age = stats.column_stats("age")
        assert abs(age.null_fraction - 0.1) < 1e-9
        assert abs(age.non_null_fraction - 0.9) < 1e-9

    def test_min_max(self):
        stats = analyze_table(_loaded_table())
        assert stats.column_stats("id").min_value == 0
        assert stats.column_stats("id").max_value == 199

    def test_histogram_and_mcv_present(self):
        stats = analyze_table(_loaded_table())
        assert stats.column_stats("id").histogram is not None
        assert stats.column_stats("name").mcv is not None

    def test_statistics_target_limits_buckets(self):
        stats = analyze_table(_loaded_table(), statistics_target=5)
        assert stats.column_stats("id").histogram.num_buckets <= 5

    def test_empty_table(self):
        schema = make_schema("empty", [("id", ColumnType.INT)])
        stats = analyze_table(Table(schema))
        assert stats.row_count == 0
        assert stats.column_stats("id").n_distinct == 0
        assert stats.column_stats("id").histogram is None
