"""repro: a reproduction of "How I Learned to Stop Worrying and Love Re-optimization".

The package bundles a complete in-memory analytic query engine (catalog,
storage, SQL front-end, statistics, PostgreSQL-style optimizer, instrumented
executor), the paper's re-optimization scheme and perfect-(n) oracles, a
synthetic IMDB / Join-Order-Benchmark workload, and a benchmark harness that
regenerates every table and figure of the paper's evaluation.

Typical entry points:

* :func:`repro.connect` — open a DB-API-2.0-style :class:`Connection`; run
  SQL through cursors and prepared statements, with plan caching and
  transparent mid-query re-optimization.
* :class:`repro.engine.Database` — the engine substrate underneath a
  connection.
* :func:`repro.workloads.build_imdb_database` /
  :func:`repro.workloads.generate_job_workload` — the benchmark workload.
* :mod:`repro.bench.experiments` — one function per paper table/figure.
"""

from repro.core import (
    ReoptimizationInterceptor,
    ReoptimizationPolicy,
    ReoptimizationReport,
    TrueCardinalityOracle,
    q_error,
)
from repro.engine import (
    Connection,
    Cursor,
    Database,
    EngineSettings,
    PlanCache,
    PlanCacheStats,
    PreparedStatement,
    QueryContext,
    QueryInterceptor,
    QueryPipeline,
    QueryRun,
    apilevel,
    connect,
    paramstyle,
    threadsafety,
)
from repro.errors import ConfigError, ReproError
from repro.optimizer.feedback import FeedbackStore

__version__ = "1.2.0"

__all__ = [
    "ConfigError",
    "Connection",
    "Cursor",
    "Database",
    "EngineSettings",
    "FeedbackStore",
    "PlanCache",
    "PlanCacheStats",
    "PreparedStatement",
    "QueryContext",
    "QueryInterceptor",
    "QueryPipeline",
    "QueryRun",
    "ReoptimizationInterceptor",
    "ReoptimizationPolicy",
    "ReoptimizationReport",
    "ReproError",
    "TrueCardinalityOracle",
    "__version__",
    "apilevel",
    "connect",
    "paramstyle",
    "q_error",
    "threadsafety",
]
