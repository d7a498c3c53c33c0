"""Differential testing: vectorized engine vs the row-at-a-time oracle.

Every bundled workload query (the JOB-style synthetic workload and the
Nasdaq stocks example) is planned once and executed through both engines.
The engines must agree on

* the result multiset (compared as sorted row lists), and
* the charged work — work accounting is engine-invariant by design, so any
  divergence means an operator computed a different cardinality.

Per-node actual row counts are also compared so a compensating error in two
operators cannot cancel out in the totals.
"""

from __future__ import annotations

import pytest

from repro.executor import ExecutionEngine
from repro.workloads.stocks import StocksConfig, build_stocks_database, example_query


def _sort_key(row):
    # NULLs sort first within a column; (is-null, value) pairs keep mixed
    # None/value columns comparable.
    return tuple((value is None, value) for value in row)


def _run_both_engines(database, planned):
    vectorized = database.executor.execute(planned.plan)
    reference = database.executor_for(ExecutionEngine.REFERENCE).execute(planned.plan)
    assert vectorized.engine is ExecutionEngine.VECTORIZED
    assert reference.engine is ExecutionEngine.REFERENCE
    return vectorized, reference


def _assert_identical(vectorized, reference, label):
    assert sorted(vectorized.result.rows, key=_sort_key) == sorted(
        reference.result.rows, key=_sort_key
    ), f"{label}: result sets differ between engines"
    assert vectorized.total_work == reference.total_work, (
        f"{label}: charged work differs "
        f"({vectorized.total_work} vs {reference.total_work})"
    )
    assert vectorized.rows_processed == reference.rows_processed, (
        f"{label}: per-plan row counts differ"
    )
    for node_id, metric in vectorized.node_metrics.items():
        other = reference.node_metrics[node_id]
        assert metric.actual_rows == other.actual_rows, (
            f"{label}: node {metric.label} produced {metric.actual_rows} rows "
            f"vectorized vs {other.actual_rows} reference"
        )
        assert metric.work == other.work, (
            f"{label}: node {metric.label} charged {metric.work} work "
            f"vectorized vs {other.work} reference"
        )


class TestJobWorkloadDifferential:
    def test_every_workload_query_agrees(self, bench_context):
        database = bench_context.database
        assert bench_context.query_names(), "workload context has no queries"
        for name in bench_context.query_names():
            planned = database.plan(bench_context.query(name))
            vectorized, reference = _run_both_engines(database, planned)
            _assert_identical(vectorized, reference, name)


class TestStocksWorkloadDifferential:
    @pytest.fixture(scope="class")
    def stocks_db(self):
        return build_stocks_database(StocksConfig(num_companies=800, num_trades=8000))

    STOCKS_QUERIES = [
        example_query("APPL"),
        example_query("GOOG"),
        # Unfiltered join with plain projection (non-aggregate output).
        "SELECT company.symbol, trades.shares FROM company, trades "
        "WHERE company.id = trades.company_id AND trades.shares > 9000;",
        # Range + LIKE filters with MIN/MAX aggregates.
        "SELECT min(trades.shares) AS lo, max(trades.shares) AS hi "
        "FROM company, trades WHERE company.symbol LIKE 'S00%' "
        "AND company.id = trades.company_id "
        "AND trades.shares BETWEEN 100 AND 500;",
    ]

    @pytest.mark.parametrize("sql", STOCKS_QUERIES)
    def test_stocks_queries_agree(self, stocks_db, sql):
        planned = stocks_db.plan(sql)
        vectorized, reference = _run_both_engines(stocks_db, planned)
        _assert_identical(vectorized, reference, sql.splitlines()[0])


class TestDifferentialAcrossAlgorithms:
    """Forcing each join algorithm must not break engine agreement."""

    def test_algorithms_agree_between_engines(self, stock_db):
        from repro.optimizer.plan import JoinAlgorithm

        sql = (
            "SELECT c.symbol, t.id FROM company AS c, trades AS t "
            "WHERE c.sector = 'tech' AND c.id = t.company_id"
        )
        planned = stock_db.plan(sql)
        joins = planned.plan.join_nodes()
        assert joins
        for algorithm in (JoinAlgorithm.HASH_JOIN, JoinAlgorithm.NESTED_LOOP):
            for join in joins:
                join.algorithm = algorithm
            vectorized, reference = _run_both_engines(stock_db, planned)
            _assert_identical(vectorized, reference, f"{algorithm.value}")
