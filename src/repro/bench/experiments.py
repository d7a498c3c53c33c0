"""One experiment function per table and figure of the paper's evaluation.

Every function takes a :class:`~repro.bench.harness.WorkloadContext` and
returns an :class:`~repro.bench.reporting.ExperimentResult` whose rows mirror
the series/bars/buckets of the corresponding paper artifact.  The benchmark
modules under ``benchmarks/`` call these functions and print the text tables;
EXPERIMENTS.md records the paper-vs-measured comparison.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench.harness import (
    WorkloadContext,
    run_matrix,
    run_workload,
    throughput,
    total_seconds,
)
from repro.bench.regimes import (
    PerfectRegime,
    PostgresRegime,
    QueryOutcome,
    ReoptimizedRegime,
)
from repro.bench.reporting import ExperimentResult
from repro.core.feedback import FeedbackLoop
from repro.core.interceptor import ReoptimizationInterceptor
from repro.core.triggers import ReoptimizationPolicy, q_error
from repro.engine.pipeline import FeedbackHarvestInterceptor, QueryPipeline
from repro.engine.settings import ESTIMATOR_NAMES
from repro.core.oracle import TrueCardinalityOracle
from repro.optimizer.optimizer import Optimizer
from repro.stats.percentile import nearest_rank
from repro.workloads.job import table_count_distribution
from repro.workloads.stocks import StocksConfig, build_stocks_database, example_query

#: Number of tables in the largest workload query ("perfect" = perfect-(17)).
MAX_PERFECT = 17

#: Q-error thresholds swept by Figure 7 (the paper's x-axis).
FIGURE7_THRESHOLDS = (2, 4, 8, 16, 32, 64, 100, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)


# ---------------------------------------------------------------------------
# Regime helpers
# ---------------------------------------------------------------------------


def postgres_regime() -> PostgresRegime:
    """The baseline regime."""
    return PostgresRegime()


def perfect_regime(context: WorkloadContext, n: int) -> PerfectRegime:
    """Perfect-(n) regime sharing the context's oracle."""
    return PerfectRegime(context.oracle, n)


def reoptimized_regime(
    context: WorkloadContext,
    threshold: float = 32.0,
    perfect_tables: int = 0,
) -> ReoptimizedRegime:
    """Re-optimization regime (optionally on top of perfect-(n))."""
    policy = ReoptimizationPolicy(threshold=threshold)
    return ReoptimizedRegime(
        policy=policy, oracle=context.oracle, perfect_tables=perfect_tables
    )


def _longest_query_names(context: WorkloadContext, count: int) -> List[str]:
    """Names of the ``count`` longest-running queries under the baseline."""
    outcomes = run_workload(context, postgres_regime())
    ranked = sorted(outcomes, key=lambda o: o.execution_seconds, reverse=True)
    return [outcome.query_name for outcome in ranked[:count]]


# ---------------------------------------------------------------------------
# Figure 1 — top-20 longest queries under five regimes
# ---------------------------------------------------------------------------


def figure1(context: WorkloadContext, top: int = 20) -> ExperimentResult:
    """Planning and execution time of the top-``top`` longest queries.

    Compares PostgreSQL-style estimates, perfect-(3), perfect-(4), the
    re-optimization scheme and perfect estimates (paper Figure 1).
    """
    names = _longest_query_names(context, top)
    regimes = [
        postgres_regime(),
        perfect_regime(context, 3),
        perfect_regime(context, 4),
        reoptimized_regime(context),
        perfect_regime(context, MAX_PERFECT),
    ]
    labels = {
        "postgres": "PostgreSQL",
        "perfect-3": "Perfect-(3)",
        "perfect-4": "Perfect-(4)",
        "reopt-32": "Re-optimized",
        f"perfect-{MAX_PERFECT}": "Perfect",
    }
    matrix = run_matrix(context, regimes, names)
    result = ExperimentResult(
        experiment_id="fig1",
        title=f"Top-{top} longest queries: planning + execution time (simulated s)",
        headers=["regime", "execute_s", "plan_s", "total_s"],
    )
    for regime in regimes:
        execution, planning = total_seconds(matrix[regime.name])
        result.add_row(labels[regime.name], execution, planning, execution + planning)
    result.metadata["query_names"] = names
    # Re-optimization activity on the top queries: how many materialize/
    # re-plan steps the scheme took in total (the CI trajectory report tracks
    # this next to the headline times).
    result.metadata["reopt_steps_total"] = sum(
        outcome.reoptimization_steps for outcome in matrix["reopt-32"]
    )
    # Real operator throughput of the executor (engine-dependent), reported
    # alongside the engine-invariant simulated times so the harness artifacts
    # capture the vectorized engine's speedup.
    summary = throughput(outcome for outcomes in matrix.values() for outcome in outcomes)
    result.metadata["rows_processed"] = summary.rows_processed
    result.metadata["executor_wall_seconds"] = summary.wall_seconds
    result.metadata["rows_per_second"] = summary.rows_per_second
    result.add_note(
        f"executor throughput: {summary.rows_per_second:,.0f} rows/s "
        f"({summary.rows_processed:,} rows in {summary.wall_seconds:.2f}s wall)"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 2 — perfect-(n) sweep over the whole workload
# ---------------------------------------------------------------------------


def figure2(
    context: WorkloadContext, ns: Optional[Sequence[int]] = None
) -> ExperimentResult:
    """Total planning + execution time with perfect-(n), n = 0..17 (Figure 2)."""
    ns = list(ns) if ns is not None else list(range(0, MAX_PERFECT + 1))
    regimes = []
    for n in ns:
        regimes.append(postgres_regime() if n == 0 else perfect_regime(context, n))
    matrix = run_matrix(context, regimes)
    result = ExperimentResult(
        experiment_id="fig2",
        title="Whole workload: planning + execution vs perfect-(n)",
        headers=["perfect_n", "execute_s", "plan_s", "total_s"],
    )
    for n, regime in zip(ns, regimes):
        execution, planning = total_seconds(matrix[regime.name])
        result.add_row(n, execution, planning, execution + planning)
    return result


# ---------------------------------------------------------------------------
# Table I — number of cardinality estimates per join size
# ---------------------------------------------------------------------------


def table1(context: WorkloadContext) -> ExperimentResult:
    """Number of cardinality estimates on joins of N tables (paper Table I)."""
    counts: Dict[int, int] = {}
    optimizer = Optimizer(
        context.database.catalog,
        cost_model=context.database.cost_model,
        planner_config=context.database.settings.planner,
    )
    for name in context.query_names():
        planned = optimizer.plan(context.query(name))
        for size, count in planned.stats.estimates_by_size.items():
            counts[size] = counts.get(size, 0) + count
    result = ExperimentResult(
        experiment_id="table1",
        title="Number of cardinality estimates on joins of N tables",
        headers=["tables_in_join", "num_estimates"],
    )
    for size in sorted(counts):
        result.add_row(size, counts[size])
    return result


# ---------------------------------------------------------------------------
# Tables II and VI — per-query runtime relative to perfect-(17)
# ---------------------------------------------------------------------------

RELATIVE_BUCKETS = ((0.1, 0.8), (0.8, 1.2), (1.2, 2.0), (2.0, 5.0), (5.0, float("inf")))
BUCKET_LABELS = ("0.1 - 0.8", "0.8 - 1.2", "1.2 - 2.0", "2.0 - 5.0", "> 5.0")


def _relative_runtime_histogram(
    baseline: Sequence[QueryOutcome], perfect: Sequence[QueryOutcome]
) -> List[int]:
    perfect_by_name = {o.query_name: o for o in perfect}
    buckets = [0] * len(RELATIVE_BUCKETS)
    for outcome in baseline:
        reference = perfect_by_name[outcome.query_name]
        denominator = max(reference.execution_seconds, 1e-9)
        ratio = outcome.execution_seconds / denominator
        for index, (low, high) in enumerate(RELATIVE_BUCKETS):
            if (ratio >= low or index == 0) and ratio < high:
                buckets[index] += 1
                break
        else:
            buckets[-1] += 1
    return buckets


def table2(context: WorkloadContext) -> ExperimentResult:
    """Runtime of the baseline relative to perfect-(17), bucketed (Table II)."""
    matrix = run_matrix(
        context, [postgres_regime(), perfect_regime(context, MAX_PERFECT)]
    )
    buckets = _relative_runtime_histogram(
        matrix["postgres"], matrix[f"perfect-{MAX_PERFECT}"]
    )
    result = ExperimentResult(
        experiment_id="table2",
        title="Execution time of queries with default estimates relative to perfect-(17)",
        headers=["relative_runtime", "num_queries"],
    )
    for label, count in zip(BUCKET_LABELS, buckets):
        result.add_row(label, count)
    return result


def table6(context: WorkloadContext, threshold: float = 32.0) -> ExperimentResult:
    """Runtime after re-optimization relative to perfect-(17), bucketed (Table VI)."""
    matrix = run_matrix(
        context,
        [
            reoptimized_regime(context, threshold=threshold),
            perfect_regime(context, MAX_PERFECT),
        ],
    )
    buckets = _relative_runtime_histogram(
        matrix[f"reopt-{int(threshold)}"], matrix[f"perfect-{MAX_PERFECT}"]
    )
    result = ExperimentResult(
        experiment_id="table6",
        title="Execution time of queries with re-optimization relative to perfect-(17)",
        headers=["relative_runtime", "num_queries"],
    )
    for label, count in zip(BUCKET_LABELS, buckets):
        result.add_row(label, count)
    return result


# ---------------------------------------------------------------------------
# Table III — number of queries per table count
# ---------------------------------------------------------------------------


def table3(context: WorkloadContext) -> ExperimentResult:
    """Number of workload queries with a given number of tables (Table III)."""
    distribution = table_count_distribution(context.job_queries)
    result = ExperimentResult(
        experiment_id="table3",
        title="Number of queries in the workload with a given number of tables",
        headers=["num_tables", "num_queries"],
    )
    for tables, count in distribution.items():
        result.add_row(tables, count)
    return result


# ---------------------------------------------------------------------------
# Figure 5 — iterative selective improvement (LEO-style feedback)
# ---------------------------------------------------------------------------


def figure5(
    context: WorkloadContext,
    query_names: Optional[Sequence[str]] = None,
    threshold: float = 32.0,
    max_iterations: int = 64,
) -> ExperimentResult:
    """Per-iteration execution time under iterative estimate correction (Figure 5).

    By default the three workload queries with the worst baseline-vs-perfect
    slowdown play the role of the paper's 16b / 25c / 30a.
    """
    if query_names is None:
        query_names = _worst_relative_queries(context, 3)
    perfect = perfect_regime(context, MAX_PERFECT)
    result = ExperimentResult(
        experiment_id="fig5",
        title="Execution time per iteration of selective estimate correction",
        headers=["query", "iteration", "execution_s", "perfect_s"],
    )
    loop = FeedbackLoop(
        context.database, threshold=threshold, max_iterations=max_iterations
    )
    for name in query_names:
        perfect_outcome = regime_outcome(context, perfect, name)
        feedback = loop.run(context.query(name))
        for iteration in feedback.iterations:
            result.add_row(
                name,
                iteration.index,
                iteration.execution_seconds,
                perfect_outcome.execution_seconds,
            )
        context.oracle.release_intermediates(context.query(name))
    result.metadata["query_names"] = list(query_names)
    return result


def _worst_relative_queries(context: WorkloadContext, count: int) -> List[str]:
    matrix = run_matrix(
        context, [postgres_regime(), perfect_regime(context, MAX_PERFECT)]
    )
    perfect_by_name = {o.query_name: o for o in matrix[f"perfect-{MAX_PERFECT}"]}
    ranked = sorted(
        matrix["postgres"],
        key=lambda o: o.execution_seconds
        / max(perfect_by_name[o.query_name].execution_seconds, 1e-9),
        reverse=True,
    )
    return [outcome.query_name for outcome in ranked[:count]]


def regime_outcome(
    context: WorkloadContext, regime, query_name: str
) -> QueryOutcome:
    """Convenience wrapper around the harness cache for one query."""
    from repro.bench.harness import run_query

    return run_query(context, regime, query_name)


# ---------------------------------------------------------------------------
# Figure 6 — the re-optimization rewrite example
# ---------------------------------------------------------------------------


def figure6(
    context: WorkloadContext, query_name: Optional[str] = None, threshold: float = 32.0
) -> ExperimentResult:
    """The CREATE TEMP TABLE rewrite produced by re-optimization (Figure 6)."""
    def reoptimize(name: str):
        pipeline = QueryPipeline(
            context.database,
            [ReoptimizationInterceptor(ReoptimizationPolicy(threshold=threshold))],
        )
        return pipeline.run(bound=context.query(name)).report

    if query_name is None:
        for candidate in _longest_query_names(context, 10):
            report = reoptimize(candidate)
            if report.reoptimized:
                query_name = candidate
                break
        else:  # pragma: no cover - the workload always triggers at least once
            query_name = context.query_names()[0]
            report = reoptimize(query_name)
    else:
        report = reoptimize(query_name)
    result = ExperimentResult(
        experiment_id="fig6",
        title=f"Re-optimization rewrite of {query_name}",
        headers=["step", "trigger", "q_error", "temp_rows"],
    )
    for step in report.steps:
        result.add_row(step.index, ",".join(step.trigger_aliases), step.q_error, step.temp_rows)
    result.metadata["original_sql"] = context.query(query_name).to_sql()
    result.metadata["rewritten_sql"] = report.rewritten_sql()
    result.add_note("rewritten script:\n" + report.rewritten_sql())
    return result


# ---------------------------------------------------------------------------
# Figure 7 — threshold sweep
# ---------------------------------------------------------------------------


def figure7(
    context: WorkloadContext, thresholds: Optional[Sequence[float]] = None
) -> ExperimentResult:
    """Planning/execution time vs re-optimization threshold (Figure 7)."""
    thresholds = list(thresholds) if thresholds is not None else list(FIGURE7_THRESHOLDS)
    regimes = [reoptimized_regime(context, threshold=t) for t in thresholds]
    regimes.append(postgres_regime())
    regimes.append(perfect_regime(context, MAX_PERFECT))
    matrix = run_matrix(context, regimes)
    result = ExperimentResult(
        experiment_id="fig7",
        title="Whole workload: planning + execution vs re-optimization threshold",
        headers=["threshold", "execute_s", "plan_s", "total_s"],
    )
    for threshold, regime in zip(thresholds, regimes[: len(thresholds)]):
        execution, planning = total_seconds(matrix[regime.name])
        result.add_row(int(threshold), execution, planning, execution + planning)
    for label, regime in (("PG", regimes[-2]), ("Perfect", regimes[-1])):
        execution, planning = total_seconds(matrix[regime.name])
        result.add_row(label, execution, planning, execution + planning)
    return result


# ---------------------------------------------------------------------------
# Figure 8 — perfect-(n) with and without re-optimization
# ---------------------------------------------------------------------------


def figure8(
    context: WorkloadContext, ns: Optional[Sequence[int]] = None, threshold: float = 32.0
) -> ExperimentResult:
    """Execution time of perfect-(n) with and without re-optimization (Figure 8)."""
    ns = list(ns) if ns is not None else list(range(0, MAX_PERFECT + 1))
    plain: List = []
    reopt: List = []
    for n in ns:
        plain.append(postgres_regime() if n == 0 else perfect_regime(context, n))
        reopt.append(reoptimized_regime(context, threshold=threshold, perfect_tables=n))
    matrix = run_matrix(context, plain + reopt)
    result = ExperimentResult(
        experiment_id="fig8",
        title="Whole workload execution time: perfect-(n) vs perfect-(n) + re-optimization",
        headers=["perfect_n", "perfect_exec_s", "reopt_exec_s"],
    )
    for n, plain_regime, reopt_regime_ in zip(ns, plain, reopt):
        plain_exec, _ = total_seconds(matrix[plain_regime.name])
        reopt_exec, _ = total_seconds(matrix[reopt_regime_.name])
        result.add_row(n, plain_exec, reopt_exec)
    return result


# ---------------------------------------------------------------------------
# Figure 9 — per-query comparison
# ---------------------------------------------------------------------------


def figure9(context: WorkloadContext, threshold: float = 32.0) -> ExperimentResult:
    """Per-query execution time: baseline vs re-optimized vs perfect (Figure 9)."""
    regimes = [
        postgres_regime(),
        reoptimized_regime(context, threshold=threshold),
        perfect_regime(context, MAX_PERFECT),
    ]
    matrix = run_matrix(context, regimes)
    baseline = {o.query_name: o for o in matrix["postgres"]}
    reopt = {o.query_name: o for o in matrix[f"reopt-{int(threshold)}"]}
    perfect = {o.query_name: o for o in matrix[f"perfect-{MAX_PERFECT}"]}
    ordered = sorted(baseline.values(), key=lambda o: o.execution_seconds)
    result = ExperimentResult(
        experiment_id="fig9",
        title="Per-query execution time (ordered by baseline execution time)",
        headers=["query", "postgres_s", "reopt_s", "perfect_s"],
    )
    for outcome in ordered:
        name = outcome.query_name
        result.add_row(
            name,
            outcome.execution_seconds,
            reopt[name].execution_seconds,
            perfect[name].execution_seconds,
        )
    totals = (
        sum(o.execution_seconds for o in baseline.values()),
        sum(o.execution_seconds for o in reopt.values()),
        sum(o.execution_seconds for o in perfect.values()),
    )
    result.add_note(
        f"totals: postgres={totals[0]:.1f}s reopt={totals[1]:.1f}s perfect={totals[2]:.1f}s"
    )
    result.metadata["totals"] = {
        "postgres": totals[0],
        "reopt": totals[1],
        "perfect": totals[2],
    }
    return result


# ---------------------------------------------------------------------------
# Tables IV / V — the Nasdaq skew example
# ---------------------------------------------------------------------------


def table45(config: Optional[StocksConfig] = None) -> ExperimentResult:
    """The companies/trades skew example (paper Tables IV/V and Section IV-C)."""
    config = config or StocksConfig()
    database = build_stocks_database(config)
    oracle = TrueCardinalityOracle(database)
    result = ExperimentResult(
        experiment_id="table45",
        title="Skew across a join: estimated vs actual rows for popular symbols",
        headers=["symbol", "estimated_rows", "actual_rows", "q_error"],
    )
    from repro.core.triggers import q_error as q_error_fn

    for symbol in config.popular_symbols:
        query = database.parse(example_query(symbol), name=f"stocks-{symbol}")
        planned = database.plan(query)
        join_estimate = None
        for node in planned.plan.join_nodes():
            join_estimate = node.estimated_rows
        actual = oracle.true_cardinality(query, set(query.aliases))
        result.add_row(symbol, join_estimate or 0.0, actual, q_error_fn(join_estimate or 1, actual))
    return result


# ---------------------------------------------------------------------------
# Ablations (design choices called out in README, "Re-optimization: a round
# runs nothing twice")
# ---------------------------------------------------------------------------


def ablation_trigger_site(
    context: WorkloadContext, top: int = 10, threshold: float = 32.0
) -> ExperimentResult:
    """Materializing the lowest vs the highest violating join."""
    names = _longest_query_names(context, top)
    lowest = ReoptimizedRegime(
        policy=ReoptimizationPolicy(threshold=threshold, trigger_site="lowest"),
        name="reopt-lowest",
    )
    highest = ReoptimizedRegime(
        policy=ReoptimizationPolicy(threshold=threshold, trigger_site="highest"),
        name="reopt-highest",
    )
    matrix = run_matrix(context, [lowest, highest], names)
    result = ExperimentResult(
        experiment_id="ablation-trigger-site",
        title=f"Trigger site ablation over the top-{top} longest queries",
        headers=["variant", "execute_s", "plan_s"],
    )
    for regime in (lowest, highest):
        execution, planning = total_seconds(matrix[regime.name])
        result.add_row(regime.name, execution, planning)
    return result


def ablation_temp_table_stats(
    context: WorkloadContext, top: int = 10, threshold: float = 32.0
) -> ExperimentResult:
    """Re-planning with vs without ANALYZE on the materialized temp tables."""
    names = _longest_query_names(context, top)
    with_stats = ReoptimizedRegime(
        policy=ReoptimizationPolicy(threshold=threshold, analyze_temp_tables=True),
        name="reopt-analyze",
    )
    without_stats = ReoptimizedRegime(
        policy=ReoptimizationPolicy(threshold=threshold, analyze_temp_tables=False),
        name="reopt-no-analyze",
    )
    matrix = run_matrix(context, [with_stats, without_stats], names)
    result = ExperimentResult(
        experiment_id="ablation-temp-stats",
        title=f"Temp-table ANALYZE ablation over the top-{top} longest queries",
        headers=["variant", "execute_s", "plan_s"],
    )
    for regime in (with_stats, without_stats):
        execution, planning = total_seconds(matrix[regime.name])
        result.add_row(regime.name, execution, planning)
    return result


def ablation_midquery(
    context: WorkloadContext, top: int = 10, threshold: float = 32.0
) -> ExperimentResult:
    """Materialize-and-rewrite vs adaptive (in-memory) mid-query re-optimization."""
    names = _longest_query_names(context, top)
    simulated = reoptimized_regime(context, threshold=threshold)
    adaptive = ReoptimizedRegime(
        ReoptimizationPolicy(threshold=threshold),
        name=f"adaptive-{int(threshold)}",
        adaptive=True,
    )
    matrix = run_matrix(context, [simulated, adaptive], names)
    result = ExperimentResult(
        experiment_id="ablation-midquery",
        title=f"Materializing vs adaptive re-optimization over the top-{top} longest queries",
        headers=["variant", "execute_s", "plan_s"],
    )
    for regime in (simulated, adaptive):
        execution, planning = total_seconds(matrix[regime.name])
        result.add_row(regime.name, execution, planning)
    return result


# ---------------------------------------------------------------------------
# Estimator-strategy matrix (estimator x workload, two passes)
# ---------------------------------------------------------------------------


def estimator_matrix(
    context: WorkloadContext,
    queries: int = 12,
    threshold: float = 8.0,
) -> ExperimentResult:
    """Estimator-strategy x workload matrix: Q-error and re-plan counts.

    Runs a slice of the multi-join workload queries twice under each
    cardinality-estimation strategy (``repro.optimizer.estimators``).  Each
    query takes two passes per run:

    1. a re-optimizing pass (threshold ``threshold``, no plan cache) whose
       materialize-and-re-plan step count is the re-plan metric, and
    2. a plain pass that collects the join Q-errors of the executed plan and
       harvests true cardinalities into the database's feedback store.

    Under the ``feedback`` strategy run 2 plans with the cardinalities
    harvested in run 1, so both its re-plan count and its join Q-error tail
    drop; the statistics-only strategies are deterministic across runs.
    """
    db = context.database
    names = [q.name for q in context.job_queries if q.num_tables >= 4][:queries]

    result = ExperimentResult(
        experiment_id="estimators",
        title=(
            f"Estimator strategies over {len(names)} multi-join queries, "
            f"two runs (re-plan threshold {threshold:g})"
        ),
        headers=["estimator", "run", "replans", "qerr_p50", "qerr_p90", "qerr_max"],
    )
    result.metadata["query_names"] = names

    saved_estimator = db.settings.estimator
    try:
        for estimator in ESTIMATOR_NAMES:
            db.set_estimator(estimator)
            db.feedback.clear()
            reopt_pipeline = QueryPipeline(
                db,
                [ReoptimizationInterceptor(
                    ReoptimizationPolicy(threshold=threshold), adaptive=False
                )],
            )
            plain_pipeline = QueryPipeline(db, [FeedbackHarvestInterceptor()])
            for run in (1, 2):
                replans = 0
                errors: List[float] = []
                for name in names:
                    report = reopt_pipeline.run(bound=context.query(name)).report
                    replans += len(report.steps)
                    ctx = plain_pipeline.run(bound=context.query(name))
                    for node in ctx.planned.plan.join_nodes():
                        if node.actual_rows is not None:
                            errors.append(q_error(node.estimated_rows, node.actual_rows))
                result.add_row(
                    estimator,
                    run,
                    replans,
                    nearest_rank(errors, 50.0),
                    nearest_rank(errors, 90.0),
                    max(errors) if errors else 0.0,
                )
    finally:
        db.set_estimator(saved_estimator)
        db.feedback.clear()
    return result
