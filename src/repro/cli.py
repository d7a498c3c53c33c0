"""Command-line interface: paper artifacts and an ad-hoc SQL shell.

Usage (after ``python setup.py develop``)::

    python -m repro.cli list
    python -m repro.cli run fig1 --scale 0.3
    python -m repro.cli run table2 fig7 --scale 0.25 --query-limit 60
    python -m repro.cli run all --scale 0.2 --output results.txt
    python -m repro.cli sql --scale 0.1 -e "SELECT count(t.id) AS n FROM title AS t"
    python -m repro.cli sql --scale 0.1          # REPL on stdin, ';' terminated

Every experiment prints the same text table the corresponding benchmark
prints, so the CLI is the quickest way to eyeball a single figure without
going through pytest.  The ``sql`` command serves statements over a
:class:`~repro.engine.connection.Connection` — re-optimization, plan caching
and metrics included — against a freshly built synthetic IMDB database.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, TextIO

from repro.bench import experiments as exp
from repro.bench.harness import WorkloadContext, build_context
from repro.bench.reporting import ExperimentResult
from repro.core.triggers import ReoptimizationPolicy
from repro.engine.connection import Connection, connect
from repro.engine.settings import ESTIMATOR_NAMES, EngineSettings
from repro.errors import ReproError
from repro.executor.executor import ExecutionEngine
from repro.workloads.imdb import ImdbConfig, build_imdb_database

#: Experiment registry: id -> (description, needs_context, runner).
EXPERIMENTS: Dict[str, tuple] = {
    "fig1": ("top-20 longest queries under five regimes", True, exp.figure1),
    "fig2": ("perfect-(n) sweep over the whole workload", True, exp.figure2),
    "fig5": ("LEO-style iterative estimate correction", True, exp.figure5),
    "fig6": ("the re-optimization rewrite example", True, exp.figure6),
    "fig7": ("re-optimization threshold sweep", True, exp.figure7),
    "fig8": ("perfect-(n) with and without re-optimization", True, exp.figure8),
    "fig9": ("per-query comparison (baseline / re-opt / perfect)", True, exp.figure9),
    "table1": ("number of cardinality estimates per join size", True, exp.table1),
    "table2": ("per-query runtime relative to perfect-(17)", True, exp.table2),
    "table3": ("queries per table count", True, exp.table3),
    "table45": ("the Nasdaq skew example", False, exp.table45),
    "table6": ("runtime after re-optimization relative to perfect-(17)", True, exp.table6),
    "ablation-site": ("lowest vs highest trigger join", True, exp.ablation_trigger_site),
    "ablation-stats": ("ANALYZE vs no ANALYZE on temp tables", True, exp.ablation_temp_table_stats),
    "ablation-midquery": ("materializing vs adaptive re-optimization", True, exp.ablation_midquery),
    "estimators": ("estimator-strategy x workload matrix (Q-error, re-plans)", True, exp.estimator_matrix),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Reproduce the paper's tables and figures."
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run = subparsers.add_parser("run", help="run one or more experiments")
    run.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (see 'list'), or 'all'",
    )
    run.add_argument("--scale", type=float, default=None, help="dataset scale factor")
    run.add_argument("--seed", type=int, default=42, help="dataset seed")
    run.add_argument(
        "--query-limit", type=int, default=None, help="restrict the workload to the first N queries"
    )
    run.add_argument(
        "--engine",
        choices=[engine.value for engine in ExecutionEngine],
        default=None,
        help=(
            "execution engine: 'vectorized' (columnar batches, default) or "
            "'reference' (row-at-a-time oracle); simulated times are "
            "identical, only wall-clock changes"
        ),
    )
    run.add_argument(
        "--estimator",
        choices=list(ESTIMATOR_NAMES),
        default=None,
        help=(
            "cardinality-estimation strategy (default 'stats', the paper's "
            "PostgreSQL-style model; see repro.optimizer.estimators)"
        ),
    )
    run.add_argument("--output", type=str, default=None, help="also write results to this file")

    sql = subparsers.add_parser(
        "sql",
        help="serve ad-hoc SQL over a Connection to the synthetic IMDB database",
    )
    sql.add_argument("--scale", type=float, default=0.1, help="dataset scale factor")
    sql.add_argument("--seed", type=int, default=42, help="dataset seed")
    sql.add_argument(
        "--engine",
        choices=[engine.value for engine in ExecutionEngine],
        default=None,
        help="execution engine (vectorized default)",
    )
    sql.add_argument(
        "--estimator",
        choices=list(ESTIMATOR_NAMES),
        default=None,
        help="cardinality-estimation strategy (default 'stats')",
    )
    sql.add_argument(
        "--execute",
        "-e",
        action="append",
        metavar="SQL",
        help="statement to run (repeatable); omit for a ';'-terminated REPL on stdin",
    )
    sql.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="re-optimization Q-error threshold (default: the paper's 32)",
    )
    sql.add_argument(
        "--no-reoptimize",
        action="store_true",
        help="serve statements without the re-optimization interceptor",
    )
    sql.add_argument(
        "--explain",
        action="store_true",
        help="print EXPLAIN ANALYZE for every statement",
    )
    sql.add_argument(
        "--max-rows", type=int, default=20, help="rows printed per result (default 20)"
    )

    serve = subparsers.add_parser(
        "serve",
        help=(
            "drive a concurrent demo load through the threaded serving loop "
            "(snapshot-isolated sessions, shared plan cache, admission control)"
        ),
    )
    serve.add_argument(
        "--clients", type=int, default=4, help="concurrent client threads (default 4)"
    )
    serve.add_argument(
        "--statements",
        type=int,
        default=25,
        help="statements per client (default 25)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, help="server worker threads (default 4)"
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=32,
        help="admission queue capacity (default 32)",
    )
    serve.add_argument(
        "--admission-timeout",
        type=float,
        default=0.5,
        help="seconds to wait for a queue slot before shedding (default 0.5)",
    )
    serve.add_argument(
        "--writer-churn",
        action="store_true",
        help="run a background ANALYZE/load loop to exercise snapshot isolation",
    )
    serve.add_argument("--seed", type=int, default=13, help="dataset seed")
    return parser


def _resolve_ids(requested: List[str]) -> List[str]:
    if any(item == "all" for item in requested):
        return list(EXPERIMENTS)
    unknown = [item for item in requested if item not in EXPERIMENTS]
    if unknown:
        raise SystemExit(f"unknown experiment(s): {', '.join(unknown)} (try 'list')")
    return requested


def _engine_settings(
    engine: Optional[str], estimator: Optional[str]
) -> Optional[EngineSettings]:
    """Settings for the CLI's engine knobs (None when all are default).

    Lowers the flags onto the defaults through
    :meth:`~repro.engine.settings.EngineSettings.resolve` — the same
    precedence rule ``connect()`` and ``Server`` use.
    """
    if engine is None and estimator is None:
        return None
    return EngineSettings.resolve(None, engine=engine, estimator=estimator)


def run_experiments(
    ids: List[str],
    scale: Optional[float] = None,
    seed: int = 42,
    query_limit: Optional[int] = None,
    engine: Optional[str] = None,
    estimator: Optional[str] = None,
    emit: Callable[[str], None] = print,
) -> List[ExperimentResult]:
    """Run the requested experiments and emit their text artifacts."""
    ids = _resolve_ids(ids)
    settings = _engine_settings(engine, estimator)
    context: Optional[WorkloadContext] = None
    results: List[ExperimentResult] = []
    for experiment_id in ids:
        _, needs_context, runner = EXPERIMENTS[experiment_id]
        start = time.perf_counter()
        if needs_context:
            if context is None:
                emit(
                    f"# building workload context (scale={scale or 'default'}, "
                    f"engine={engine or 'vectorized'})..."
                )
                context = build_context(
                    scale=scale, seed=seed, query_limit=query_limit, settings=settings
                )
            result = runner(context)
        else:
            result = runner()
        elapsed = time.perf_counter() - start
        results.append(result)
        emit("")
        emit(result.to_text())
        emit(f"# ({experiment_id} regenerated in {elapsed:.1f}s wall)")
    return results


def _iter_statements(stream: TextIO, interactive: bool) -> Iterator[str]:
    """Yield ``;``-terminated statements from a stream (REPL-style).

    Multiple statements on one line are split; a trailing statement without
    a terminating ``;`` is still executed at EOF.
    """
    buffer = ""
    if interactive:
        print("repro sql shell — end statements with ';', exit with Ctrl-D", flush=True)
    while True:
        if interactive:
            print("sql> " if not buffer.strip() else "...> ", end="", flush=True)
        line = stream.readline()
        if not line:
            break
        buffer += line
        while ";" in buffer:
            statement, _, buffer = buffer.partition(";")
            if statement.strip():
                yield statement.strip() + ";"
    if buffer.strip():
        yield buffer.strip()


def _print_statement(
    connection: Connection, sql: str, show_explain: bool, max_rows: int,
    emit: Callable[[str], None] = print,
) -> None:
    """Execute one statement on a cursor and print rows plus accounting."""
    cursor = connection.execute(sql)
    context = cursor.context
    names = [column[0] for column in cursor.description or []]
    if names:
        emit("  ".join(names))
    rows = cursor.fetchmany(max_rows)
    for row in rows:
        emit("  ".join(str(value) for value in row))
    remaining = cursor.rowcount - len(rows)
    if remaining > 0:
        emit(f"... ({remaining} more row(s))")
    reopt = ""
    if context.reoptimized:
        reopt = f", re-optimized in {len(context.report.steps)} step(s)"
    cached = ", cached plan" if context.plan_cached else ""
    emit(
        f"-- {cursor.rowcount} row(s); planning {context.planning_seconds:.3f}s, "
        f"execution {context.execution_seconds:.3f}s simulated{cached}{reopt}"
    )
    if show_explain and context.planned is not None:
        from repro.executor.explain import explain_plan

        steps = context.report.steps if context.report is not None else ()
        emit(explain_plan(context.planned.plan, context.execution, steps))


def run_sql(args, stdin: Optional[TextIO] = None) -> int:
    """The ``sql`` command: a Connection-backed statement shell."""
    settings = _engine_settings(args.engine, args.estimator)
    print(
        f"# building the synthetic IMDB database (scale={args.scale})...",
        flush=True,
    )
    database, _ = build_imdb_database(
        ImdbConfig(scale=args.scale, seed=args.seed), settings=settings
    )
    policy = (
        ReoptimizationPolicy(threshold=args.threshold)
        if args.threshold is not None
        else None
    )
    connection = connect(
        database, policy=policy, reoptimize=not args.no_reoptimize
    )
    stream = stdin if stdin is not None else sys.stdin
    interactive = args.execute is None and stream.isatty()
    statements = (
        iter(args.execute)
        if args.execute is not None
        else _iter_statements(stream, interactive)
    )
    failures = 0
    for statement in statements:
        try:
            _print_statement(connection, statement, args.explain, args.max_rows)
        except ReproError as error:
            failures += 1
            print(f"error: {error}", file=sys.stderr, flush=True)
    metrics = connection.metrics
    stats = connection.cache_stats
    print(
        f"# served {metrics.statements} statement(s): "
        f"{metrics.planning_seconds:.3f}s planning + "
        f"{metrics.execution_seconds:.3f}s execution (simulated), "
        f"{metrics.reoptimized_statements} re-optimized; "
        f"plan cache {stats.hits} hit(s) / {stats.misses} miss(es)"
    )
    return 1 if failures else 0


def run_serve(args) -> int:
    """The ``serve`` command: a concurrent demo load through the server."""
    import threading

    from repro.server import Server, ServerConfig
    from repro.workloads.stocks import StocksConfig, build_stocks_database, example_query

    print(f"# building the trading database (seed={args.seed})...", flush=True)
    database = build_stocks_database(StocksConfig(seed=args.seed))
    statements = [
        example_query("APPL"),
        example_query("GOOG"),
        "SELECT COUNT(trades.id) AS n FROM trades",
        "SELECT COUNT(company.id) AS n FROM company",
    ]
    config = ServerConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        admission_timeout=args.admission_timeout,
    )
    errors: List[str] = []
    with Server(database, config) as server:
        stop = threading.Event()

        def churn() -> None:
            while not stop.is_set():
                database.analyze(["trades"])
                stop.wait(0.01)

        writer = threading.Thread(target=churn, daemon=True)
        if args.writer_churn:
            writer.start()

        def client(n: int) -> None:
            session = server.session()
            for i in range(args.statements):
                try:
                    session.execute(statements[(n + i) % len(statements)])
                except ReproError as error:
                    errors.append(str(error))

        start = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(n,)) for n in range(args.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if args.writer_churn:
            stop.set()
            writer.join()
        stats = server.stats
        cache = server.plan_cache.stats
        print(
            f"# {args.clients} client(s) x {args.statements} statement(s) "
            f"on {args.workers} worker(s) in {elapsed:.2f}s wall"
        )
        print(
            f"#   served {stats.statements}, shed {stats.shed}, "
            f"errors {stats.errors + len(errors)}, "
            f"rows/sec {stats.rows_returned / elapsed:.0f}"
        )
        print(
            f"#   latency p50 {stats.p50_seconds * 1000:.2f}ms, "
            f"p99 {stats.p99_seconds * 1000:.2f}ms (end-to-end)"
        )
        print(
            f"#   plan cache: {cache.hits} hit(s) / {cache.misses} miss(es), "
            f"{cache.stale_evictions} stale eviction(s)"
        )
    return 1 if errors else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "sql":
        return run_sql(args)
    if args.command == "serve":
        return run_serve(args)
    if args.command == "list":
        width = max(len(key) for key in EXPERIMENTS)
        for key, (description, _, _) in EXPERIMENTS.items():
            print(f"{key.ljust(width)}  {description}")
        return 0

    lines: List[str] = []

    def emit(text: str) -> None:
        print(text)
        lines.append(text)

    run_experiments(
        _resolve_ids(args.experiments),
        scale=args.scale,
        seed=args.seed,
        query_limit=args.query_limit,
        engine=args.engine,
        estimator=args.estimator,
        emit=emit,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"# wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
