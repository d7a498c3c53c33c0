"""The paper's re-optimization scheme as a query-lifecycle interceptor.

:class:`ReoptimizationInterceptor` replaces the *execute* stage of a
:class:`~repro.engine.pipeline.QueryPipeline` with one of two loops.  Both
run every round through :meth:`~repro.executor.executor.Executor.execute_staged`
— the plan's joins bottom-up, each at most once, stopping at the first join
whose Q-error breaks the threshold — and share the query rewrite
(:class:`~repro.executor.handover.Handover`); they differ in the handover
and in what they charge:

* **Adaptive (operator-level) re-optimization** — when the engine's
  ``adaptive`` setting (or the interceptor's ``adaptive`` override) is on.
  The :class:`~repro.executor.adaptive.AdaptiveExecutor` hands the trigger's
  rows over as an in-memory catalog pseudo-table (no DDL, no materialization
  surcharge), re-plans the remainder with the observed true cardinalities,
  and charges every operator that ran.  It always triggers at the lowest
  violating join.
* **The paper's materialize-and-rewrite loop** (the default, and what the
  paper-figure benchmarks run): the trigger's rows become a temporary table,
  the table is ANALYZEd, the remainder of the query is rewritten to read it
  and re-planned, until no join violates the threshold (paper Section V).

Rewrite-loop accounting follows the paper:

* execution time = the work to create every temporary table (the sub-join's
  own work plus the write-out) plus the work of the final SELECT;
* planning time = planning of the original query (zero when it came from the
  plan cache) plus planning of every rewritten query;
* the round stops at the trigger and its rows are the temp table's rows, so
  a re-optimized round costs what ``CREATE TEMP TABLE AS`` of that sub-join
  costs and nothing is executed to be thrown away.  Only the two ablation
  knobs that need the whole first plan — ``trigger_site="highest"`` and a
  ``min_query_seconds`` cutoff — finish the round's plan (still running
  every node once and keeping just the trigger candidate's rows); the part
  above the trigger is then work the paper's accounting does not charge.

Both loops produce the same :class:`ReoptimizationReport` shape, so every
consumer (connection metrics, benchmark regimes, examples) works unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.reoptimizer import ReoptimizationReport, ReoptimizationStep
from repro.core.triggers import ReoptimizationPolicy, q_error
from repro.engine.pipeline import Proceed, QueryContext, QueryInterceptor
from repro.errors import ReoptimizationError
from repro.executor.executor import StagedExecution
from repro.executor.handover import Handover
from repro.sql.ast import Column, ColumnRef, SelectItem
from repro.sql.binder import BoundQuery
from repro.sql.builder import estimated_columns


class ReoptimizationInterceptor(QueryInterceptor):
    """Runs the re-optimization loop around the execute stage.

    ``adaptive`` selects the loop: ``True`` forces operator-level adaptive
    execution, ``False`` forces the paper's materialize-and-rewrite loop,
    ``None`` (default) follows the engine's
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
        adaptive = self.adaptive
        if adaptive is None:
            adaptive = getattr(ctx.database.settings, "adaptive", False)
        if adaptive:
            return self._execute_adaptive(ctx)
        return self._execute_rewrite(ctx)

    # -- operator-level adaptive loop ---------------------------------------

    def _execute_adaptive(self, ctx: QueryContext) -> QueryContext:
        """Run the in-executor adaptive loop instead of the execute stage.

        ``proceed`` is deliberately not called: stage-wise execution replaces
        the plain full execution, so there is no separate exploratory run.
        """
        # Imported lazily: the adaptive executor pulls in repro.core.triggers,
        # so a module-level import would be circular through repro.core.
        from repro.executor.adaptive import AdaptiveExecutor

        db = ctx.database
        execution = AdaptiveExecutor(
            db, self.policy, injector=ctx.injector
        ).execute(ctx.planned)

        report = ReoptimizationReport(query_name=ctx.bound.name)
        if not ctx.plan_cached:
            report.total_planning_work += ctx.planned.stats.planning_work
        report.total_planning_work += execution.replanning_work
        report.total_execution_work = execution.total_work
        report.rows_processed = execution.rows_processed
        report.wall_seconds = execution.wall_seconds
        report.steps = list(execution.steps)
        report.final_planned = execution.final_planned
        report.final_execution = execution
        report.final_query = execution.final_query
        ctx.report = report
        ctx.planned = execution.final_planned
        ctx.execution = execution
        return ctx

    # -- the paper's materialize-and-rewrite loop ---------------------------

    def _execute_rewrite(self, ctx: QueryContext) -> QueryContext:
        """Run the rewrite loop instead of the execute stage.

        As in the adaptive loop ``proceed`` is not called: every round,
        including the first, is one staged run of the current plan.
        """
        db = ctx.database
        policy = self.policy
        report = ReoptimizationReport(query_name=ctx.bound.name)
        if not ctx.plan_cached:
            # A cache hit skipped planning, so there is nothing to charge
            # for round zero; re-planning rounds are always charged below.
            report.total_planning_work += ctx.planned.stats.planning_work
        current = ctx.bound
        planned = ctx.planned
        handover = Handover(planned.plan, db.catalog)
        temp_tables: List[str] = []
        highest = policy.trigger_site == "highest"
        try:
            for iteration in range(policy.max_iterations + 1):
                if iteration:
                    planned = db.plan(current, injector=ctx.injector)
                    report.total_planning_work += planned.stats.planning_work
                can_still_rewrite = (
                    iteration < policy.max_iterations and current.num_tables() > 1
                )
                # The short-query cutoff reads the first plan's full simulated
                # time, and the highest violating join is only known once
                # every join ran: those rounds finish the plan, keeping just
                # the trigger candidate's rows, instead of pausing.
                cutoff = iteration == 0 and policy.min_query_seconds > 0.0
                staged = db.executor.execute_staged(
                    planned.plan,
                    policy.violates if can_still_rewrite else None,
                    finish=highest or cutoff,
                    last=highest,
                )
                report.rows_processed += staged.rows_processed
                report.wall_seconds += staged.wall_seconds
                if cutoff and staged.simulated_seconds < policy.min_query_seconds:
                    staged.trigger = staged.trigger_result = None

                if staged.trigger is None:
                    report.total_execution_work += staged.total_work
                    report.final_planned = planned
                    report.final_execution = staged
                    report.final_query = current
                    break

                current = self._materialize_and_rewrite(
                    db, current, staged, iteration, report, temp_tables, handover
                )
                # The round is over: its rows must not live through the next.
                staged = None
            else:  # pragma: no cover - loop always breaks
                raise ReoptimizationError(
                    f"re-optimization of {ctx.bound.name!r} did not terminate"
                )
        finally:
            if not self.keep_temp_tables:
                for name in temp_tables:
                    if name in db.catalog:
                        db.drop_intermediate(name)

        staged.result = handover.restore(staged.result)
        ctx.report = report
        ctx.planned = report.final_planned
        ctx.execution = report.final_execution
        return ctx

    # -- internals ----------------------------------------------------------

    def _materialize_and_rewrite(
        self,
        db,
        current: BoundQuery,
        staged: StagedExecution,
        iteration: int,
        report: ReoptimizationReport,
        temp_tables: List[str],
        handover: Handover,
    ) -> BoundQuery:
        """The paper's handover: the trigger's rows become an ANALYZEd temp table.

        The round stopped at the trigger, so its rows *are* the temp table's
        rows; the step is charged what ``CREATE TEMP TABLE AS`` of that
        sub-join costs — the sub-join's own work plus the write-out.
        """
        trigger = staged.trigger
        sub_result = staged.trigger_result
        temp_name = db.next_temp_table_name()
        rewritten, columns = handover.collapse(
            current, trigger.aliases, temp_name, f"reopt{iteration + 1}"
        )
        temp_tables.append(temp_name)
        # A kept table outlives the statement, so it is ordinary DDL; one the
        # loop drops again is registered like an adaptive intermediate and
        # leaves the plans cached for other statements valid.  Its only
        # reader is the rewritten query, so ANALYZE covers the columns that
        # query can ask about — not the ones that ride along to the select
        # list (every column under SELECT *, which orders and limits by them).
        transient = not self.keep_temp_tables
        db.create_temp_table_from_result(
            temp_name,
            sub_result,
            columns,
            alias_tables=current.alias_tables,
            analyze=self.policy.analyze_temp_tables,
            transient=transient,
            analyze_only=(
                estimated_columns(rewritten, temp_name)
                if transient and rewritten.select_items
                else None
            ),
        )

        materialize_work = db.cost_model.materialize_cost(
            len(sub_result), len(columns)
        )
        charged = staged.trigger_work + materialize_work
        report.total_execution_work += charged
        report.steps.append(
            ReoptimizationStep(
                index=iteration,
                trigger_label=trigger.label(),
                trigger_aliases=tuple(sorted(trigger.aliases)),
                estimated_rows=trigger.estimated_rows,
                actual_rows=len(sub_result),
                q_error=q_error(trigger.estimated_rows, len(sub_result)),
                temp_table=temp_name,
                temp_rows=len(sub_result),
                charged_work=charged,
                materialize_work=materialize_work,
                create_sql=self._render_create_sql(
                    current, trigger.aliases, temp_name, dict(columns)
                ),
            )
        )
        return rewritten

    @staticmethod
    def _render_create_sql(
        query: BoundQuery,
        aliases,
        temp_name: str,
        mapping: Dict[Tuple[str, str], str],
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
        select_sql = sub_query.to_sql()
        return f"CREATE TEMP TABLE {temp_name} AS\n{select_sql}"
