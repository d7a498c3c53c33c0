"""The query lifecycle pipeline: parse → bind → plan → execute.

Every statement served by a :class:`~repro.engine.connection.Connection`
flows through one :class:`QueryPipeline`.  The pipeline owns the four core
lifecycle stages and threads a :class:`QueryContext` through them; ordered
:class:`QueryInterceptor` middleware wraps each stage, which is how the
cross-cutting behaviors that used to be parallel code paths are expressed:

* plan caching (:class:`PlanCacheInterceptor`) short-circuits the parse,
  bind and plan stages;
* re-optimization (:class:`repro.core.interceptor.ReoptimizationInterceptor`)
  wraps the execute stage with the paper's re-optimization loop;
* EXPLAIN capture (:class:`ExplainCaptureInterceptor`) and timing/metrics
  (:class:`MetricsInterceptor`) observe the finished lifecycle.

Interceptors are listed outermost first: for a chain ``[a, b]`` the plan
stage runs as ``a.around_plan(ctx, b.around_plan(ctx, core))``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.errors import InterfaceError
from repro.executor.explain import explain_plan
from repro.sql.params import bind_parameters
from repro.sql.parser import parse_select

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.reoptimizer import ReoptimizationReport
    from repro.engine.database import Database
    from repro.executor.executor import ExecutionResult
    from repro.optimizer.injection import CardinalityInjector
    from repro.optimizer.optimizer import PlannedQuery
    from repro.sql.ast import SelectQuery
    from repro.sql.binder import BoundQuery

#: Lifecycle stages, in order.
STAGES: Tuple[str, ...] = ("parse", "bind", "plan", "execute")


@dataclass
class QueryContext:
    """Everything the lifecycle knows about one statement.

    The pipeline fills the ``parsed``/``bound``/``planned``/``execution``
    slots stage by stage; interceptors may read or replace them.  When the
    re-optimization interceptor ran, ``report`` carries the full
    re-optimization accounting, ``planned`` holds the *final* plan and
    ``execution`` its round (every round, under the in-memory handover).
    ``bound`` always remains the original statement (before any rewrite).
    """

    database: "Database"
    sql: Optional[str] = None
    name: Optional[str] = None
    params: Optional[Tuple[object, ...]] = None
    injector: Optional["CardinalityInjector"] = None
    parsed: Optional["SelectQuery"] = None
    bound: Optional["BoundQuery"] = None
    planned: Optional["PlannedQuery"] = None
    execution: Optional["ExecutionResult"] = None
    report: Optional["ReoptimizationReport"] = None
    plan_cached: bool = False
    explain_text: Optional[str] = None
    #: Wall-clock seconds spent per stage (filled by :class:`MetricsInterceptor`).
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    # -- result accessors ---------------------------------------------------

    @property
    def rows(self) -> List[tuple]:
        """Rows of the final result."""
        if self.report is not None:
            return self.report.rows
        if self.execution is not None:
            return self.execution.result.rows
        return []

    @property
    def planning_seconds(self) -> float:
        """Simulated planning time charged to this statement.

        A plan-cache hit charges nothing; a re-optimized statement charges
        every planning round (the initial round only when it was not served
        from the cache).
        """
        if self.report is not None:
            return self.report.planning_seconds
        if self.plan_cached or self.planned is None:
            return 0.0
        return self.planned.stats.planning_seconds

    @property
    def execution_seconds(self) -> float:
        """Simulated execution time (including temp-table materialization)."""
        if self.report is not None:
            return self.report.execution_seconds
        if self.execution is None:
            return 0.0
        return self.execution.simulated_seconds

    @property
    def total_seconds(self) -> float:
        """Planning plus execution, in simulated seconds."""
        return self.planning_seconds + self.execution_seconds

    @property
    def reoptimized(self) -> bool:
        """True if the re-optimization interceptor re-planned the statement."""
        return self.report is not None and self.report.reoptimized

    @property
    def rows_processed(self) -> int:
        """Rows produced across all plan operators (throughput numerator)."""
        if self.report is not None:
            return self.report.rows_processed
        if self.execution is not None:
            return self.execution.rows_processed
        return 0

    @property
    def wall_seconds(self) -> float:
        """Wall-clock time spent inside plan operators."""
        if self.report is not None:
            return self.report.wall_seconds
        if self.execution is not None:
            return self.execution.wall_seconds
        return 0.0


#: An interceptor's continuation: runs the rest of the stage chain.
Proceed = Callable[[QueryContext], QueryContext]


class QueryInterceptor:
    """Middleware around the lifecycle stages.

    Subclasses override the ``around_*`` hooks they care about.  A hook
    receives the context and a ``proceed`` continuation; calling ``proceed``
    runs the interceptors further down the chain and the core stage, while
    returning without calling it short-circuits the stage (the plan cache
    does this on a hit).
    """

    name = "interceptor"

    def around_parse(self, ctx: QueryContext, proceed: Proceed) -> QueryContext:
        """Wrap the parse stage."""
        return proceed(ctx)

    def around_bind(self, ctx: QueryContext, proceed: Proceed) -> QueryContext:
        """Wrap the bind (and parameter substitution) stage."""
        return proceed(ctx)

    def around_plan(self, ctx: QueryContext, proceed: Proceed) -> QueryContext:
        """Wrap the plan stage."""
        return proceed(ctx)

    def around_execute(self, ctx: QueryContext, proceed: Proceed) -> QueryContext:
        """Wrap the execute stage."""
        return proceed(ctx)


class QueryPipeline:
    """Runs statements through the staged lifecycle with interceptors."""

    def __init__(
        self,
        database: "Database",
        interceptors: Iterable[QueryInterceptor] = (),
    ) -> None:
        self.database = database
        self.interceptors: List[QueryInterceptor] = list(interceptors)

    def run(
        self,
        sql: Optional[str] = None,
        *,
        bound: Optional["BoundQuery"] = None,
        params: Optional[Sequence[object]] = None,
        name: Optional[str] = None,
        injector: Optional["CardinalityInjector"] = None,
    ) -> QueryContext:
        """Run one statement through the full lifecycle.

        Either ``sql`` text or an already-bound query must be given; a bound
        query skips the parse and bind stages (the harness and prepared
        statements use this entry).
        """
        if sql is None and bound is None:
            raise InterfaceError("QueryPipeline.run needs SQL text or a bound query")
        ctx = QueryContext(
            database=self.database,
            sql=sql,
            name=name,
            params=tuple(params) if params is not None else None,
            injector=injector,
            bound=bound,
        )
        for stage in STAGES:
            ctx = self._run_stage(stage, ctx)
        return ctx

    # -- stage plumbing -----------------------------------------------------

    def _run_stage(self, stage: str, ctx: QueryContext) -> QueryContext:
        handler: Proceed = getattr(self, f"_stage_{stage}")
        for interceptor in reversed(self.interceptors):
            hook = getattr(interceptor, f"around_{stage}")
            handler = _chain(hook, handler)
        return handler(ctx)

    def _stage_parse(self, ctx: QueryContext) -> QueryContext:
        if ctx.bound is None and ctx.parsed is None:
            ctx.parsed = parse_select(ctx.sql, name=ctx.name)
        return ctx

    def _stage_bind(self, ctx: QueryContext) -> QueryContext:
        if ctx.bound is None:
            ctx.bound = self.database.binder.bind(ctx.parsed)
        if ctx.params is not None or ctx.bound.param_count:
            ctx.bound = bind_parameters(ctx.bound, ctx.params or ())
        return ctx

    def _stage_plan(self, ctx: QueryContext) -> QueryContext:
        ctx.planned = self.database.plan(ctx.bound, injector=ctx.injector)
        return ctx

    def _stage_execute(self, ctx: QueryContext) -> QueryContext:
        ctx.execution = self.database.execute_plan(ctx.planned)
        return ctx


def _chain(hook, nxt: Proceed) -> Proceed:
    """Bind one interceptor hook around the rest of the stage chain."""
    def run(ctx: QueryContext) -> QueryContext:
        return hook(ctx, nxt)

    return run


# -- bundled interceptors ---------------------------------------------------


class PlanCacheInterceptor(QueryInterceptor):
    """Serves parse, bind and plan from a cache keyed on SQL + catalog epoch.

    A statement given as text is first looked up by its text alias (text,
    name, the ``repr`` of each parameter, epoch) before the parse stage: a hit
    installs the cached bound statement and plan, and the bind and plan
    stages pass it through.  Otherwise the plan stage probes the entry keyed
    on the bound statement's canonical SQL — shared by prepared and ad-hoc
    statements — and files the text under it.  Either way a statement is one
    probe.

    Statements planned with a cardinality injector bypass the cache: the
    injector changes the chosen plan but is not part of the key.
    """

    name = "plan-cache"

    def __init__(self, cache) -> None:
        self.cache = cache

    def _bypassed(self, ctx: QueryContext) -> bool:
        return not self.cache.enabled or ctx.injector is not None

    @staticmethod
    def _alias_key(ctx: QueryContext, epoch: int) -> tuple:
        return (ctx.sql, ctx.name, tuple(map(repr, ctx.params or ())), epoch)

    def around_parse(self, ctx: QueryContext, proceed: Proceed) -> QueryContext:
        if ctx.bound is not None or self._bypassed(ctx):
            return proceed(ctx)
        epoch = ctx.database.catalog.epoch
        hit = self.cache.get_alias(self._alias_key(ctx, epoch), epoch=epoch)
        if hit is None:
            return proceed(ctx)
        ctx.bound, ctx.planned = hit
        ctx.plan_cached = True
        return ctx

    def around_bind(self, ctx: QueryContext, proceed: Proceed) -> QueryContext:
        return ctx if ctx.plan_cached else proceed(ctx)

    def around_plan(self, ctx: QueryContext, proceed: Proceed) -> QueryContext:
        if ctx.plan_cached:
            return ctx
        if self._bypassed(ctx):
            return proceed(ctx)
        epoch = ctx.database.catalog.epoch
        key = (ctx.bound.to_sql(), epoch)
        # Only a statement parsed from its text may be found by that text.
        alias = None
        if ctx.parsed is not None:
            alias = (self._alias_key(ctx, epoch), ctx.bound)
        planned = self.cache.get(key, epoch=epoch, alias=alias)
        if planned is not None:
            ctx.planned = planned
            ctx.plan_cached = True
            return ctx
        ctx = proceed(ctx)
        self.cache.put(
            key, ctx.planned, epoch=epoch,
            cost=ctx.planned.stats.planning_seconds, alias=alias,
        )
        return ctx


class FeedbackHarvestInterceptor(QueryInterceptor):
    """Records observed cardinalities into the database's feedback store.

    After the execute stage (including any re-optimization rounds wrapped
    inside it), the true cardinalities the executor observed — scan outputs,
    join outputs, and every re-optimization trigger's materialized subtree —
    are normalized (:func:`repro.optimizer.feedback.subset_key`) and recorded
    in ``database.feedback``, where the ``feedback`` estimation strategy
    seeds future plans with them.  Subsets mentioning pseudo-aliases
    (``__temp*`` re-optimization tables, adaptive intermediates) are skipped:
    they are not subtrees of the original statement.

    Place it *outside* the re-optimization interceptor so it observes the
    final report.
    """

    name = "feedback-harvest"

    def around_execute(self, ctx: QueryContext, proceed: Proceed) -> QueryContext:
        ctx = proceed(ctx)
        self._harvest(ctx)
        return ctx

    def _harvest(self, ctx: QueryContext) -> None:
        from repro.optimizer.provenance import harvest_observations

        bound = ctx.bound
        store = getattr(ctx.database, "feedback", None)
        if bound is None or store is None:
            return
        valid = set(bound.aliases)
        observed: Dict[frozenset, float] = {}
        if ctx.report is not None:
            for step in ctx.report.steps:
                subset = frozenset(step.trigger_aliases)
                if subset and subset <= valid:
                    observed[subset] = float(step.actual_rows)
        # After a re-optimization loop these are the final round's.
        if ctx.planned is not None and ctx.execution is not None:
            final = harvest_observations(ctx.planned.plan, ctx.execution.node_metrics)
            for subset, rows in final.items():
                if subset <= valid:
                    observed[subset] = rows
        for subset, rows in observed.items():
            store.record(bound, subset, rows)


class ExplainCaptureInterceptor(QueryInterceptor):
    """Captures EXPLAIN ANALYZE text of the final plan after execution."""

    name = "explain-capture"

    def around_execute(self, ctx: QueryContext, proceed: Proceed) -> QueryContext:
        ctx = proceed(ctx)
        if ctx.planned is not None:
            steps = ctx.report.steps if ctx.report is not None else ()
            ctx.explain_text = explain_plan(ctx.planned.plan, ctx.execution, steps)
        return ctx


@dataclass
class ConnectionMetrics:
    """Aggregate accounting of every statement served by a connection."""

    statements: int = 0
    rows_returned: int = 0
    planning_seconds: float = 0.0
    execution_seconds: float = 0.0
    reoptimized_statements: int = 0
    stage_wall_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Total simulated time across all statements."""
        return self.planning_seconds + self.execution_seconds


class MetricsInterceptor(QueryInterceptor):
    """Times every stage and folds per-statement accounting into metrics.

    Place it first (outermost) so its stage timings include the work of the
    interceptors further down the chain.
    """

    name = "metrics"

    def __init__(self, metrics: Optional[ConnectionMetrics] = None) -> None:
        self.metrics = metrics if metrics is not None else ConnectionMetrics()

    def _timed(self, stage: str, ctx: QueryContext, proceed: Proceed) -> QueryContext:
        start = time.perf_counter()
        try:
            return proceed(ctx)
        finally:
            elapsed = time.perf_counter() - start
            ctx.stage_seconds[stage] = ctx.stage_seconds.get(stage, 0.0) + elapsed
            totals = self.metrics.stage_wall_seconds
            totals[stage] = totals.get(stage, 0.0) + elapsed

    def around_parse(self, ctx: QueryContext, proceed: Proceed) -> QueryContext:
        return self._timed("parse", ctx, proceed)

    def around_bind(self, ctx: QueryContext, proceed: Proceed) -> QueryContext:
        return self._timed("bind", ctx, proceed)

    def around_plan(self, ctx: QueryContext, proceed: Proceed) -> QueryContext:
        return self._timed("plan", ctx, proceed)

    def around_execute(self, ctx: QueryContext, proceed: Proceed) -> QueryContext:
        ctx = self._timed("execute", ctx, proceed)
        self.metrics.statements += 1
        self.metrics.rows_returned += len(ctx.rows)
        self.metrics.planning_seconds += ctx.planning_seconds
        self.metrics.execution_seconds += ctx.execution_seconds
        if ctx.reoptimized:
            self.metrics.reoptimized_statements += 1
        return ctx
