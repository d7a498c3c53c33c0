"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main, run_experiments


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("fig1", "table45", "ablation-midquery"):
            assert key in out

    def test_run_requires_experiments(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            run_experiments(["nope"])


class TestRun:
    def test_run_table45_without_context(self, capsys):
        results = run_experiments(["table45"])
        assert len(results) == 1
        assert results[0].experiment_id == "table45"

    def test_run_table3_small_context(self, capsys):
        results = run_experiments(["table3"], scale=0.1, query_limit=10)
        assert results[0].experiment_id == "table3"
        out = capsys.readouterr().out
        assert "num_tables" in out

    def test_main_with_output_file(self, tmp_path, capsys):
        output = tmp_path / "artifact.txt"
        code = main(
            [
                "run",
                "table45",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert "q_error" in output.read_text()

    def test_registry_complete(self):
        # Every paper artifact has a CLI entry.
        for required in ("fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9",
                         "table1", "table2", "table3", "table45", "table6"):
            assert required in EXPERIMENTS


class TestSqlCommand:
    def test_execute_statements_over_connection(self, capsys):
        code = main(
            [
                "sql",
                "--scale",
                "0.05",
                "-e",
                "SELECT count(t.id) AS n FROM title AS t",
                "-e",
                "SELECT count(t.id) AS n FROM title AS t",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n" in out
        # The repeated statement was served from the plan cache.
        assert "cached plan" in out
        assert "plan cache 1 hit(s)" in out
        assert "served 2 statement(s)" in out

    def test_stdin_repl_statements(self, capsys, monkeypatch):
        import io

        stdin = io.StringIO("SELECT count(t.id) AS n FROM title AS t;\n")
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(["sql", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 1 statement(s)" in out

    def test_stdin_splits_and_flushes_statements(self, capsys, monkeypatch):
        import io

        # Two statements on one line plus a trailing one without ';' — all
        # three must be served.
        stdin = io.StringIO(
            "SELECT count(t.id) AS n FROM title AS t; "
            "SELECT count(kt.id) AS n FROM kind_type AS kt;\n"
            "SELECT count(t.id) AS n FROM title AS t\n"
        )
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(["sql", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 3 statement(s)" in out

    def test_bad_statement_reports_error(self, capsys):
        code = main(["sql", "--scale", "0.05", "-e", "SELECT nope FROM nowhere"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_repl_serves_grouped_ordered_limited_statements(self, capsys, monkeypatch):
        import io

        stdin = io.StringIO(
            "SELECT t.kind_id, count(*) AS n, min(t.production_year) AS first_year "
            "FROM title AS t GROUP BY t.kind_id ORDER BY n DESC LIMIT 3;\n"
            "SELECT DISTINCT kt.kind FROM kind_type AS kt ORDER BY kt.kind;\n"
        )
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(["sql", "--scale", "0.05", "--explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 2 statement(s)" in out
        # Column header row of the grouped statement.
        assert "t.kind_id  n  first_year" in out
        # EXPLAIN of the grouped statement shows the new plan nodes.
        assert "HashAggregate (keys: t.kind_id)" in out
        assert "Sort (n DESC)" in out
        assert "Limit 3" in out
        assert "Distinct" in out

    def test_repl_reports_parse_error_with_position(self, capsys):
        code = main(
            ["sql", "--scale", "0.05", "-e", "SELECT t.id LIMIT 5 FROM title AS t"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "LIMIT must come after the FROM clause" in err
        assert "at offset 12" in err


class TestServeCommand:
    def test_serves_every_statement_beside_a_writer(self, capsys):
        code = main(
            ["serve", "--clients", "2", "--statements", "3", "--workers", "2", "--writer-churn"]
        )
        assert code == 0
        assert "served 6, shed 0, errors 0" in capsys.readouterr().out
