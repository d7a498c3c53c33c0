"""The paper's re-optimization loop as a query-lifecycle interceptor.

:class:`ReoptimizationInterceptor` replaces the *execute* stage of a
:class:`~repro.engine.pipeline.QueryPipeline` with the re-optimization loop
of paper Section V.  Every round is one
:meth:`~repro.executor.executor.Executor.execute_staged` run of the current
plan — its joins bottom-up, each at most once, stopping at the first join
whose Q-error breaks the threshold.  The trigger's rows are then handed over
as a table, the rest of the query is rewritten to read it
(:class:`~repro.executor.handover.Handover`) and re-planned, until no join
violates the threshold.

There is one loop and two handovers.  Each handover owns the four things
that differ between them — how a round is staged, what it is charged, what
table the rows become, and how the remainder is re-planned:

* :class:`TempTableHandover`, the paper's materialize-and-rewrite scheme (the
  default, and what the paper-figure benchmarks run).  The rows become an
  ANALYZEd temporary table and the remainder is re-planned over its
  statistics.  A round is charged what ``CREATE TEMP TABLE AS`` of the
  sub-join costs: the sub-join's own work plus the write-out.  The round stops
  at the trigger, so nothing is executed to be thrown away.  Only the two
  ablation knobs that need the whole first plan — ``trigger_site="highest"``
  and a ``min_query_seconds`` cutoff — finish the round's plan (still running
  every node once and keeping just the trigger candidate's rows); the part
  above the trigger is then work the paper's accounting does not charge.
* :class:`InMemoryHandover`, operator-level adaptive execution (Kabra &
  DeWitt's mid-query re-optimization), when the engine's ``adaptive`` setting
  (or the interceptor's ``adaptive`` override) is on.  The rows become an
  in-memory pseudo-table without statistics or materialization surcharge,
  the remainder is re-planned with the cardinalities every round observed
  injected, and a round is charged the work of every operator that ran.  It
  cannot look ahead: the cutoff goes by the estimate, and it always
  triggers at the lowest violating join.

Planning time is the planning of the original query (zero when it came from
the plan cache) plus every re-plan; execution time is the charge of every
handed-over round plus the final round's.  Both handovers produce the same
:class:`ReoptimizationReport`.  ``ctx.execution`` is the final round under the
temp-table handover and covers every round (merged node metrics, all-round
work) under the in-memory one.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.reoptimizer import ReoptimizationReport, ReoptimizationStep
from repro.core.triggers import ReoptimizationPolicy, q_error
from repro.engine.pipeline import Proceed, QueryContext, QueryInterceptor
from repro.errors import ReoptimizationError
from repro.executor.executor import (
    ExecutionResult,
    NodeMetrics,
    StagedExecution,
    WORK_UNITS_PER_SECOND,
)
from repro.executor.handover import Handover, QualifiedColumn
from repro.executor.reference import ResultSet
from repro.optimizer.optimizer import PlannedQuery
from repro.optimizer.plan import JoinNode
from repro.optimizer.provenance import (
    Observations,
    harvest_observations,
    runtime_injection,
    translate_observations,
)
from repro.sql.ast import Column, ColumnRef, SelectItem
from repro.sql.binder import BoundQuery
from repro.sql.builder import estimated_columns

Columns = List[Tuple[QualifiedColumn, str]]
#: The trigger test a round pauses on; ``None`` runs the plan plainly.
Violates = Optional[Callable[[JoinNode, int], bool]]


class ReoptimizationInterceptor(QueryInterceptor):
    """Runs the re-optimization loop around the execute stage.

    ``adaptive`` selects the handover: ``True`` forces the in-memory one
    (operator-level adaptive execution), ``False`` forces the paper's temp
    table, ``None`` (default) follows the engine's
    :attr:`~repro.engine.settings.EngineSettings.adaptive` setting.
    """

    name = "reoptimization"

    def __init__(
        self,
        policy: Optional[ReoptimizationPolicy] = None,
        keep_temp_tables: bool = False,
        adaptive: Optional[bool] = None,
    ) -> None:
        self.policy = policy or ReoptimizationPolicy()
        self.keep_temp_tables = keep_temp_tables
        self.adaptive = adaptive

    def around_execute(self, ctx: QueryContext, proceed: Proceed) -> QueryContext:
        """Run the loop instead of the execute stage.

        ``proceed`` is deliberately not called: every round, including the
        first, is one staged run of the current plan.
        """
        adaptive = self.adaptive
        if adaptive is None:
            adaptive = getattr(ctx.database.settings, "adaptive", False)
        if adaptive:
            handover = InMemoryHandover(ctx, self.policy)
        else:
            handover = TempTableHandover(ctx, self.policy, self.keep_temp_tables)

        db = ctx.database
        policy = self.policy
        report = ReoptimizationReport(query_name=ctx.bound.name)
        if not ctx.plan_cached:
            # A cache hit skipped planning, so there is nothing to charge
            # for round zero; re-planning rounds are always charged below.
            report.total_planning_work += ctx.planned.stats.planning_work
        current = ctx.bound
        planned = ctx.planned
        rewrite = Handover(planned.plan, db.catalog)
        transient: List[str] = []
        try:
            for iteration in range(policy.max_iterations + 1):
                if iteration:
                    planned = handover.plan(current)
                    report.total_planning_work += planned.stats.planning_work
                can_still_rewrite = (
                    iteration < policy.max_iterations and current.num_tables() > 1
                )
                staged = handover.execute(
                    planned,
                    policy.violates if can_still_rewrite else None,
                    first_round=iteration == 0,
                )
                report.rows_processed += staged.rows_processed
                report.wall_seconds += staged.wall_seconds
                work = handover.round_work(planned, staged)
                if staged.trigger is None:
                    report.total_execution_work += work
                    break

                trigger = staged.trigger
                rows = staged.trigger_result
                name = db.next_temp_table_name(handover.table_base)
                rewritten, columns = rewrite.collapse(
                    current, trigger.aliases, name,
                    f"{handover.round_tag}{iteration + 1}",
                )
                if handover.transient:
                    transient.append(name)
                materialize_work, create_sql = handover.hand_over(
                    name, rows, columns, current, rewritten, trigger
                )
                charged = work + materialize_work
                report.total_execution_work += charged
                report.steps.append(
                    ReoptimizationStep(
                        index=iteration,
                        trigger_label=trigger.label(),
                        trigger_aliases=tuple(sorted(trigger.aliases)),
                        estimated_rows=trigger.estimated_rows,
                        actual_rows=len(rows),
                        q_error=q_error(trigger.estimated_rows, len(rows)),
                        temp_table=name,
                        temp_rows=len(rows),
                        charged_work=charged,
                        materialize_work=materialize_work,
                        create_sql=create_sql,
                    )
                )
                current = rewritten
                # The round is over: only the handed-over rows live on.
                staged = rows = None
            else:  # pragma: no cover - the last round never triggers
                raise ReoptimizationError(
                    f"re-optimization of {ctx.bound.name!r} did not terminate"
                )
        finally:
            for name in transient:
                if name in db.catalog:
                    db.drop_intermediate(name)

        staged.result = rewrite.restore(staged.result)
        report.final_planned = planned
        report.final_query = current
        report.final_execution = handover.execution(staged, report)
        ctx.report = report
        ctx.planned = planned
        ctx.execution = report.final_execution
        return ctx


class TempTableHandover:
    """The paper's handover: the trigger's rows become an ANALYZEd temp table."""

    table_base = "temp"
    round_tag = "reopt"

    def __init__(
        self, ctx: QueryContext, policy: ReoptimizationPolicy, keep_temp_tables: bool
    ) -> None:
        self._db = ctx.database
        self._injector = ctx.injector
        self._policy = policy
        # A kept table outlives the statement, so it is ordinary DDL; one the
        # loop drops again is transient and leaves the plans cached for other
        # statements valid.
        self.transient = not keep_temp_tables

    def execute(
        self, planned: PlannedQuery, violates: Violates, first_round: bool
    ) -> StagedExecution:
        """One round; finishes the plan when an ablation knob needs all of it.

        The short-query cutoff reads the first plan's full simulated time,
        and the highest violating join is only known once every join ran:
        those rounds finish the plan, keeping just the trigger candidate's
        rows, instead of pausing.
        """
        policy = self._policy
        highest = policy.trigger_site == "highest"
        cutoff = first_round and policy.min_query_seconds > 0.0
        staged = self._db.executor.execute_staged(
            planned.plan, violates, finish=highest or cutoff, last=highest
        )
        if cutoff and staged.simulated_seconds < policy.min_query_seconds:
            staged.trigger = staged.trigger_result = None
        return staged

    @staticmethod
    def round_work(planned: PlannedQuery, staged: StagedExecution) -> float:
        """The final round's work, or the work of the trigger's sub-join."""
        return staged.total_work if staged.trigger is None else staged.trigger_work

    def hand_over(
        self,
        name: str,
        rows: ResultSet,
        columns: Columns,
        current: BoundQuery,
        rewritten: BoundQuery,
        trigger: JoinNode,
    ) -> Tuple[float, str]:
        """Create the temp table; returns its write-out work and DDL text.

        Its only reader is the rewritten query, so a transient table's
        ANALYZE covers the columns that query can ask about — not the ones
        that ride along to the select list (every column under SELECT *,
        which orders and limits by them).
        """
        db = self._db
        db.create_temp_table_from_result(
            name,
            rows,
            columns,
            alias_tables=current.alias_tables,
            analyze=self._policy.analyze_temp_tables,
            transient=self.transient,
            analyze_only=(
                estimated_columns(rewritten, name)
                if self.transient and rewritten.select_items
                else None
            ),
        )
        materialize_work = db.cost_model.materialize_cost(len(rows), len(columns))
        return materialize_work, _create_sql(current, trigger.aliases, name, dict(columns))

    def plan(self, rewritten: BoundQuery) -> PlannedQuery:
        """Re-plan over the temp table's statistics."""
        return self._db.plan(rewritten, injector=self._injector)

    @staticmethod
    def execution(staged: StagedExecution, report: ReoptimizationReport) -> ExecutionResult:
        """The final round."""
        return staged


class InMemoryHandover:
    """Adaptive execution's handover: the rows stay in memory as a pseudo-table."""

    table_base = "stage"
    round_tag = "adapt"
    transient = True

    def __init__(self, ctx: QueryContext, policy: ReoptimizationPolicy) -> None:
        if policy.trigger_site != "lowest":
            # Stage-wise execution cannot look ahead: the first violating
            # join in bottom-up order is where it stands when it decides.
            warnings.warn(
                f"adaptive execution always triggers at the lowest violating "
                f"pipeline breaker; trigger_site={policy.trigger_site!r} is a "
                "simulation-only ablation and is ignored here",
                stacklevel=2,
            )
        self._db = ctx.database
        self._injector = ctx.injector
        self._policy = policy
        self._metrics: Dict[int, NodeMetrics] = {}
        # What every round observed, in the current query's alias space.
        self._observations: Observations = {}

    def execute(
        self, planned: PlannedQuery, violates: Violates, first_round: bool
    ) -> StagedExecution:
        """One round, paused at the lowest violating join; harvests its actuals.

        An adaptive executor cannot know the runtime up front, so the
        short-query cutoff goes by the optimizer's estimate.
        """
        cutoff = self._policy.min_query_seconds
        if (
            first_round
            and cutoff > 0.0
            and planned.plan.estimated_cost / WORK_UNITS_PER_SECOND < cutoff
        ):
            violates = None
        staged = self._db.executor.execute_staged(planned.plan, violates)
        self._metrics.update(staged.node_metrics)
        self._observations.update(
            harvest_observations(planned.plan, staged.node_metrics)
        )
        return staged

    @staticmethod
    def round_work(planned: PlannedQuery, staged: StagedExecution) -> float:
        """Work actually performed this round: own work of every node that ran."""
        metrics = staged.node_metrics
        return sum(
            metrics[node.node_id].own_work
            for node in planned.plan.walk()
            if node.node_id in metrics
        )

    def hand_over(
        self,
        name: str,
        rows: ResultSet,
        columns: Columns,
        current: BoundQuery,
        rewritten: BoundQuery,
        trigger: JoinNode,
    ) -> Tuple[float, str]:
        """Register the pseudo-table; nothing is written out."""
        self._db.create_temp_table_from_result(
            name, rows, columns, alias_tables=current.alias_tables,
            analyze=False, transient=True,
        )
        self._observations = translate_observations(
            self._observations, frozenset(trigger.aliases), name
        )
        return 0.0, f"-- adaptive handover: {len(rows)} rows kept in memory as {name}"

    def plan(self, rewritten: BoundQuery) -> PlannedQuery:
        """Re-plan with every observed cardinality injected."""
        injector = runtime_injection(self._observations, self._injector)
        return self._db.plan(rewritten, injector=injector)

    def execution(
        self, staged: StagedExecution, report: ReoptimizationReport
    ) -> ExecutionResult:
        """Every round: node ids are globally unique, so metrics merge."""
        return ExecutionResult(
            result=staged.result,
            total_work=report.total_execution_work,
            wall_seconds=report.wall_seconds,
            node_metrics=self._metrics,
            engine=staged.engine,
        )


def _create_sql(
    query: BoundQuery,
    aliases,
    temp_name: str,
    mapping: Dict[QualifiedColumn, str],
) -> str:
    """Render the CREATE TEMP TABLE statement of one materialization step."""
    alias_list = sorted(aliases)
    alias_set = set(alias_list)
    sub_query = BoundQuery(
        name=None,
        aliases=alias_list,
        alias_tables={alias: query.table_for(alias) for alias in alias_list},
        select_items=[
            SelectItem(
                expr=Column(ColumnRef(alias=alias, column=column)),
                output_name=new_name,
            )
            for (alias, column), new_name in mapping.items()
        ],
        filters={
            alias: list(query.filters_for(alias))
            for alias in alias_list
            if query.filters_for(alias)
        },
        joins=[
            join
            for join in query.joins
            if join.left_alias in aliases and join.right_alias in aliases
        ],
        residuals=[
            residual
            for residual in query.residuals
            if set(residual.referenced_aliases()) <= alias_set
        ],
    )
    return f"CREATE TEMP TABLE {temp_name} AS\n{sub_query.to_sql()}"
