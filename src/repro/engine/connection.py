"""The DB-API-2.0-style serving surface: ``repro.connect()``.

A :class:`Connection` wraps a :class:`~repro.engine.database.Database` in a
:class:`~repro.engine.pipeline.QueryPipeline` whose interceptor chain is, in
order: timing/metrics collection, the plan cache, optional EXPLAIN
capture, any user-supplied interceptors, and the re-optimization loop
innermost around the execute stage.  :class:`Cursor` follows the DB-API
fetch protocol; :meth:`Connection.prepare` returns a
:class:`PreparedStatement` whose ``?`` placeholders are lowered through the
lexer/parser/binder once and substituted per execution.

The engine is in-memory and autocommits; ``commit``/``rollback`` exist for
DB-API compatibility and do nothing.
"""

from __future__ import annotations

import weakref
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import ColumnType
from repro.engine.database import Database
from repro.engine.pipeline import (
    ConnectionMetrics,
    ExplainCaptureInterceptor,
    FeedbackHarvestInterceptor,
    MetricsInterceptor,
    PlanCacheInterceptor,
    QueryContext,
    QueryInterceptor,
    QueryPipeline,
)
from repro.engine.plancache import PlanCache, PlanCacheStats
from repro.engine.settings import EngineSettings
from repro.errors import InterfaceError
from repro.optimizer.injection import CardinalityInjector
from repro.sql.binder import BoundQuery
from repro.sql.params import bind_parameters
from repro.sql.parser import parse_select

# DB-API 2.0 module attributes (PEP 249).
apilevel = "2.0"
threadsafety = 1
paramstyle = "qmark"

#: One column of ``Cursor.description``: a PEP 249 7-tuple of
#: ``(name, type_code, display_size, internal_size, precision, scale,
#: null_ok)``.  ``type_code`` is the engine's
#: :class:`~repro.catalog.schema.ColumnType` when it can be derived
#: (``COUNT`` → INT, ``AVG`` → FLOAT, everything else the column's type).
ColumnDescription = Tuple[
    str, Optional[ColumnType], None, None, None, None, None
]


def connect(
    database: Optional[Database] = None,
    *,
    settings: Optional[EngineSettings] = None,
    policy=None,
    reoptimize: bool = True,
    adaptive: Optional[bool] = None,
    plan_cache_size: Optional[int] = None,
    interceptors: Sequence[QueryInterceptor] = (),
    capture_explain: bool = False,
    **overrides: object,
) -> "Connection":
    """Open a connection (the package-level entry point of the serving API).

    Engine configuration follows one precedence order — explicit keyword >
    ``settings`` object > defaults (see
    :meth:`~repro.engine.settings.EngineSettings.resolve`): any
    :class:`~repro.engine.settings.EngineSettings` field may be passed as a
    keyword (``connect(engine="reference", estimator="feedback")``)
    and is lowered onto ``settings``.  Unknown keywords raise
    :class:`~repro.errors.ConfigError` naming the nearest valid field.  When
    ``database`` is an existing instance, the resolved settings are applied
    to it through :meth:`~repro.engine.database.Database.apply_settings`
    (its optimizer, cost model, executor and estimator are rebuilt).

    Args:
        database: an existing engine instance; a fresh empty one is created
            when omitted.
        settings: the engine configuration object; keyword overrides lower
            onto it.
        policy: :class:`~repro.core.triggers.ReoptimizationPolicy` for the
            re-optimization interceptor.
        reoptimize: disable to serve statements without the
            materialize-and-re-plan loop.
        adaptive: ``True`` runs the re-optimization loop with the in-memory
            handover of operator-level adaptive execution, ``False`` with the
            paper's temporary tables;
            default follows the engine's ``adaptive`` setting.
        plan_cache_size: capacity of *this connection's* plan cache
            (defaults to the engine settings; 0 disables caching).
        interceptors: extra middleware, run between the bundled interceptors
            and the re-optimization loop.
        capture_explain: record EXPLAIN ANALYZE text of every statement on
            its cursor (``Cursor.explain_text``).
        **overrides: :class:`EngineSettings` fields — ``engine``,
            ``estimator``, ``statistics_target``, ... — applied at the highest
            precedence.
    """
    return Connection(
        database,
        settings=settings,
        policy=policy,
        reoptimize=reoptimize,
        adaptive=adaptive,
        plan_cache_size=plan_cache_size,
        interceptors=interceptors,
        capture_explain=capture_explain,
        **overrides,
    )


class Connection:
    """A serving session over one database (see module docstring)."""

    def __init__(
        self,
        database: Optional[Database] = None,
        *,
        settings: Optional[EngineSettings] = None,
        policy=None,
        reoptimize: bool = True,
        adaptive: Optional[bool] = None,
        plan_cache_size: Optional[int] = None,
        interceptors: Sequence[QueryInterceptor] = (),
        capture_explain: bool = False,
        **overrides: object,
    ) -> None:
        # Imported here, not at module level: repro.core's interceptor is
        # layered on the pipeline this class drives, so a top-level import
        # would be circular.
        from repro.core.interceptor import ReoptimizationInterceptor
        from repro.core.triggers import ReoptimizationPolicy

        supplied = {k: v for k, v in overrides.items() if v is not None}
        if database is None:
            self.database = Database(EngineSettings.resolve(settings, **overrides))
        else:
            self.database = database
            if settings is not None or supplied:
                base = settings if settings is not None else database.settings
                database.apply_settings(EngineSettings.resolve(base, **overrides))
        if plan_cache_size is None:
            plan_cache_size = self.database.settings.plan_cache_size
        self.metrics = ConnectionMetrics()
        self.plan_cache = PlanCache(plan_cache_size)
        self.policy = policy or (ReoptimizationPolicy() if reoptimize else None)
        chain: List[QueryInterceptor] = [MetricsInterceptor(self.metrics)]
        if self.plan_cache.enabled:
            chain.append(PlanCacheInterceptor(self.plan_cache))
        if capture_explain:
            chain.append(ExplainCaptureInterceptor())
        chain.extend(interceptors)
        # Outside the re-optimization loop so it sees the final report; the
        # store accumulates under every strategy, so switching to
        # ``estimator="feedback"`` later benefits from earlier statements.
        chain.append(FeedbackHarvestInterceptor())
        if reoptimize:
            chain.append(ReoptimizationInterceptor(self.policy, adaptive=adaptive))
        self.pipeline = QueryPipeline(self.database, chain)
        self._closed = False
        # Outstanding cursors/prepared statements, invalidated on close();
        # weak references so dropped handles do not accumulate here.
        self._cursors: "weakref.WeakSet[Cursor]" = weakref.WeakSet()
        self._statements: "weakref.WeakSet[PreparedStatement]" = weakref.WeakSet()

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called."""
        return self._closed

    def close(self) -> None:
        """Close the connection; further statements raise InterfaceError.

        Every outstanding :class:`Cursor` and :class:`PreparedStatement` is
        invalidated too, so a handle created before the close raises a clean
        :class:`~repro.errors.InterfaceError` instead of acting on a dead
        database.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        for cursor in list(self._cursors):
            cursor.close()
        for statement in list(self._statements):
            statement.close()
        self.plan_cache.clear()

    def commit(self) -> None:
        """No-op (the engine is in-memory and autocommits)."""
        self._check_open()

    def rollback(self) -> None:
        """No-op (the engine is in-memory and autocommits)."""
        self._check_open()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    # -- statements ---------------------------------------------------------

    def cursor(self) -> "Cursor":
        """Open a new cursor."""
        self._check_open()
        return Cursor(self)

    def execute(
        self, sql: str, params: Optional[Sequence[object]] = None
    ) -> "Cursor":
        """Convenience: open a cursor and execute one statement on it."""
        return self.cursor().execute(sql, params)

    def prepare(self, sql: str, name: Optional[str] = None) -> "PreparedStatement":
        """Parse and bind a parameterized statement once for re-execution."""
        self._check_open()
        return PreparedStatement(self, sql, name=name)

    def run_bound(
        self,
        query: BoundQuery,
        injector: Optional[CardinalityInjector] = None,
    ) -> QueryContext:
        """Run an already-bound query through the pipeline.

        This is the entry the benchmark harness and the session shim use;
        it returns the full :class:`~repro.engine.pipeline.QueryContext`
        instead of a cursor.
        """
        self._check_open()
        return self.pipeline.run(bound=query, injector=injector)

    # -- DDL / maintenance (epoch-bumping operations) -----------------------

    def analyze(self, tables: Optional[Sequence[str]] = None) -> None:
        """Run ANALYZE.

        Cached plans are invalidated through the catalog epoch when the
        statistics or zone maps of a table come out different; an ANALYZE
        over unchanged data keeps them.
        """
        self._check_open()
        self.database.analyze(tables)

    def create_index(self, table_name: str, column: str) -> None:
        """Create a hash index; cached plans are invalidated via the epoch."""
        self._check_open()
        self.database.create_index(table_name, column)

    # -- introspection ------------------------------------------------------

    @property
    def cache_stats(self) -> PlanCacheStats:
        """Plan cache hit/miss/eviction counters."""
        return self.plan_cache.stats


class Cursor:
    """DB-API-style cursor over one connection."""

    def __init__(self, connection: Connection) -> None:
        self.connection = connection
        self.arraysize = 1
        self._closed = False
        self._context: Optional[QueryContext] = None
        self._rows: List[tuple] = []
        self._position = 0
        self._description: Optional[List[ColumnDescription]] = None
        connection._cursors.add(self)

    # -- execution ----------------------------------------------------------

    def execute(
        self, sql: str, params: Optional[Sequence[object]] = None
    ) -> "Cursor":
        """Run one SELECT statement (``?`` placeholders filled from params)."""
        self._check_open()
        ctx = self.connection.pipeline.run(sql=sql, params=params)
        self._install(ctx)
        return self

    def executemany(
        self, sql: str, seq_of_params: Sequence[Sequence[object]]
    ) -> "Cursor":
        """Run the statement once per parameter tuple (last result wins).

        The SQL is parsed and bound once (as a prepared template); only
        parameter substitution, planning and execution repeat per tuple.
        """
        self._check_open()
        statement = self.connection.prepare(sql)
        for params in seq_of_params:
            self._install(statement._run(params))
        return self

    def _install(self, ctx: QueryContext) -> None:
        self._context = ctx
        self._rows = list(ctx.rows)
        self._position = 0
        self._description = _describe(ctx)

    # -- fetching -----------------------------------------------------------

    def fetchone(self) -> Optional[tuple]:
        """Next result row, or None when exhausted."""
        self._check_result()
        if self._position >= len(self._rows):
            return None
        row = self._rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> List[tuple]:
        """Up to ``size`` rows (default ``arraysize``)."""
        self._check_result()
        count = self.arraysize if size is None else size
        chunk = self._rows[self._position : self._position + count]
        self._position += len(chunk)
        return chunk

    def fetchall(self) -> List[tuple]:
        """All remaining rows."""
        self._check_result()
        chunk = self._rows[self._position :]
        self._position = len(self._rows)
        return chunk

    def __iter__(self) -> Iterator[tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- metadata -----------------------------------------------------------

    @property
    def description(self) -> Optional[List[ColumnDescription]]:
        """PEP 249 column descriptions of the last result (name first)."""
        return self._description

    @property
    def rowcount(self) -> int:
        """Number of rows in the last result (-1 before any execute)."""
        if self._context is None:
            return -1
        return len(self._rows)

    @property
    def context(self) -> QueryContext:
        """Lifecycle context of the last statement (pipeline accounting)."""
        self._check_result()
        return self._context

    @property
    def explain_text(self) -> Optional[str]:
        """EXPLAIN ANALYZE text (connections opened with capture_explain)."""
        self._check_result()
        return self._context.explain_text

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called (or the connection closed)."""
        return self._closed

    def close(self) -> None:
        """Close the cursor; further use raises InterfaceError. Idempotent."""
        self._closed = True
        self._rows = []
        self._context = None
        self._description = None

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()

    def _check_result(self) -> None:
        self._check_open()
        if self._context is None:
            raise InterfaceError("no statement has been executed on this cursor")


class PreparedStatement:
    """A statement parsed and bound once, executed many times.

    The SQL may contain positional ``?`` placeholders (`paramstyle`
    ``qmark``); each :meth:`execute` substitutes the given values into the
    bound template and runs it through the connection's pipeline, where the
    plan cache turns repeated executions into cache hits.
    """

    def __init__(
        self, connection: Connection, sql: str, name: Optional[str] = None
    ) -> None:
        self.connection = connection
        self.sql = sql
        self._closed = False
        self._template = connection.database.binder.bind(parse_select(sql, name=name))
        connection._statements.add(self)

    @property
    def param_count(self) -> int:
        """Number of ``?`` placeholders in the statement."""
        return self._template.param_count

    @property
    def closed(self) -> bool:
        """True once the statement (or its connection) was closed."""
        return self._closed

    def close(self) -> None:
        """Invalidate the statement; further execution raises InterfaceError."""
        self._closed = True

    def execute(self, params: Sequence[object] = ()) -> Cursor:
        """Execute with the given parameter values; returns a fresh cursor."""
        ctx = self._run(params)
        cursor = Cursor(self.connection)
        cursor._install(ctx)
        return cursor

    def _run(self, params: Sequence[object]) -> QueryContext:
        """Substitute parameters into the template and run the pipeline."""
        if self._closed:
            raise InterfaceError("prepared statement is closed")
        self.connection._check_open()
        bound = bind_parameters(self._template, params)
        return self.connection.pipeline.run(bound=bound)


def _describe(ctx: QueryContext) -> List[ColumnDescription]:
    """Build PEP 249 column descriptions for a finished statement."""
    bound = ctx.bound
    catalog = ctx.database.catalog
    columns: List[Tuple[str, Optional[ColumnType]]] = []

    def base_type(alias: str, column: str) -> Optional[ColumnType]:
        table = bound.alias_tables.get(alias) if bound is not None else None
        if table is None or table not in catalog:
            return None
        schema = catalog.schema(table)
        if not schema.has_column(column):
            return None
        return schema.column(column).col_type

    if bound is not None and bound.select_items:
        for item in bound.select_items:
            if item.output_name:
                name = item.output_name
            elif item.aggregate is not None:
                target = "*" if item.expr is None else str(item.expr)
                name = f"{item.aggregate.value}({target})"
            else:
                name = str(item.expr)
            # The binder inferred the output type (numeric widening for
            # arithmetic, common branch type for CASE, COUNT -> INT, AVG ->
            # FLOAT); a bare NULL has none.
            columns.append((name, item.result_type))
    elif ctx.execution is not None:
        for alias, column in ctx.execution.result.columns:
            columns.append((f"{alias}.{column}", base_type(alias, column)))
    return [
        (name, col_type, None, None, None, None, None) for name, col_type in columns
    ]
