"""Unit tests for the benchmark harness, regimes and reporting."""

import pytest

from repro.bench import (
    ExperimentResult,
    PerfectRegime,
    PostgresRegime,
    ReoptimizedRegime,
    format_table,
    run_matrix,
    run_query,
    run_workload,
    total_seconds,
)
from repro.bench import compare
from repro.core import ReoptimizationPolicy


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.5], ["xx", 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_experiment_result_helpers(self):
        result = ExperimentResult("x", "title", ["k", "v"])
        result.add_row("a", 1.0)
        result.add_row("b", 2.0)
        result.add_note("hello")
        assert result.column("v") == [1.0, 2.0]
        assert result.row_by("k", "b") == ["b", 2.0]
        assert result.row_by("k", "zz") is None
        text = result.to_text()
        assert "== x: title ==" in text
        assert "note: hello" in text


class TestCompare:
    @pytest.mark.parametrize("absent", ["BENCH_baseline.json", "BENCH_pr.json"])
    def test_missing_report_names_the_command_that_writes_it(self, tmp_path, capsys, absent):
        reports = [tmp_path / "BENCH_baseline.json", tmp_path / "BENCH_pr.json"]
        for report in reports:
            if report.name != absent:
                report.write_text('{"meta": {"scale": 0.3}, "metrics": {}}')
        missing = tmp_path / absent
        assert compare.main([str(report) for report in reports]) == 2
        captured = capsys.readouterr()
        assert captured.out == (
            f"FAIL: {missing} not found; write it with "
            f"`REPRO_BENCH_SCALE=0.3 REPRO_BENCH_REPORT={missing} make bench`\n"
        )
        assert captured.err == ""


class TestRegimesAndHarness:
    def test_postgres_regime(self, bench_context):
        name = bench_context.query_names()[0]
        outcome = run_query(bench_context, PostgresRegime(), name)
        assert outcome.query_name == name
        assert outcome.execution_seconds > 0
        assert outcome.regime == "postgres"

    def test_outcome_cache_reused(self, bench_context):
        name = bench_context.query_names()[1]
        regime = PostgresRegime()
        first = run_query(bench_context, regime, name)
        second = run_query(bench_context, regime, name)
        assert first is second

    def test_perfect_regime_not_slower_is_not_required_but_runs(self, bench_context):
        name = bench_context.query_names()[0]
        outcome = run_query(
            bench_context, PerfectRegime(bench_context.oracle, 17), name
        )
        assert outcome.regime == "perfect-17"
        assert outcome.rows >= 0

    def test_reoptimized_regime_counts_steps(self, bench_context):
        regime = ReoptimizedRegime(policy=ReoptimizationPolicy(threshold=8))
        outcomes = run_workload(
            bench_context, regime, bench_context.query_names()[:6]
        )
        assert len(outcomes) == 6
        assert any(outcome.reoptimization_steps >= 0 for outcome in outcomes)

    def test_adaptive_reoptimized_regime_matches_the_rewrite_loop_rows(self, bench_context):
        policy = ReoptimizationPolicy(threshold=8)
        names = bench_context.query_names()[:6]
        rewrite = run_workload(bench_context, ReoptimizedRegime(policy), names)
        adaptive = run_workload(
            bench_context,
            ReoptimizedRegime(policy, name="adaptive-8", adaptive=True),
            names,
        )
        assert [o.regime for o in adaptive] == ["adaptive-8"] * 6
        assert [o.rows for o in adaptive] == [o.rows for o in rewrite]
        assert any(o.reoptimization_steps for o in adaptive)

    def test_run_matrix_and_totals(self, bench_context):
        names = bench_context.query_names()[:4]
        regimes = [PostgresRegime(), PerfectRegime(bench_context.oracle, 2)]
        matrix = run_matrix(bench_context, regimes, names)
        assert set(matrix) == {"postgres", "perfect-2"}
        assert all(len(outcomes) == 4 for outcomes in matrix.values())
        execution, planning = total_seconds(matrix["postgres"])
        assert execution > 0 and planning > 0

    def test_context_accessors(self, bench_context):
        assert len(bench_context.query_names()) == len(bench_context.job_queries)
        first = bench_context.query_names()[0]
        assert bench_context.query(first).name == first
