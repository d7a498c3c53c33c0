"""Benchmark harness: regimes, workload context, experiments, reporting."""

from repro.bench.harness import (
    WorkloadContext,
    build_context,
    env_query_limit,
    env_scale,
    run_matrix,
    run_query,
    run_workload,
    throughput,
    ThroughputSummary,
    total_seconds,
)
from repro.bench.regimes import (
    PerfectRegime,
    PostgresRegime,
    QueryOutcome,
    Regime,
    ReoptimizedRegime,
)
from repro.bench.reporting import ExperimentResult, format_table

__all__ = [
    "ExperimentResult",
    "PerfectRegime",
    "PostgresRegime",
    "QueryOutcome",
    "Regime",
    "ReoptimizedRegime",
    "ThroughputSummary",
    "WorkloadContext",
    "build_context",
    "env_query_limit",
    "env_scale",
    "format_table",
    "run_matrix",
    "run_query",
    "run_workload",
    "throughput",
    "total_seconds",
]
