"""Operator-level adaptive execution (true mid-query re-optimization).

The rewrite loop follows the paper's scheme by rewriting SQL against
materialized temporary tables.  This module is the real-system design
the paper names (Kabra & DeWitt-style): the executor runs the plan
*stage-wise*, observing per-operator runtime statistics (actual rows,
batches, hash-join build/probe sizes, work) at every operator.  Re-plan
decisions are made at the hash-join pipeline breakers, bottom-up: that is
the only breaker below other joins, i.e. the only point where a *different*
plan for the remainder exists to switch to.  The other breakers —
HashAggregate, Sort — sit above the whole join tree, so by the time they
materialize there is no remainder left to re-plan; their runtime statistics
are still collected and reported (EXPLAIN ANALYZE).  When the Q-error
between a join's estimated and actual cardinality crosses the
:class:`~repro.core.triggers.ReoptimizationPolicy` threshold, the remainder
of the query is re-planned with the observed true cardinalities injected, and
the already-computed in-memory intermediate is handed to the new plan as a
one-shard :class:`~repro.storage.table.Table` that adopts the result's column
lists (:meth:`~repro.storage.table.Table.adopt`), registered in the catalog
without DDL, instead of being written out and re-scanned.

How this loop and the paper's rewrite loop differ — handover, accounting,
trigger site — is laid out in :mod:`repro.core.interceptor`; both drive the
same staged round (:meth:`Executor.execute_staged`) and the same query
rewrite (:class:`~repro.executor.handover.Handover`).

The loop is engine-agnostic: both the vectorized and the reference engine
execute stage-wise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.reoptimizer import ReoptimizationStep
from repro.core.triggers import ReoptimizationPolicy, q_error
from repro.errors import ReoptimizationError
from repro.executor.executor import (
    ExecutionResult,
    NodeMetrics,
    StagedExecution,
    WORK_UNITS_PER_SECOND,
)
from repro.executor.handover import Handover
from repro.optimizer.injection import CardinalityInjector
from repro.optimizer.optimizer import PlannedQuery
from repro.optimizer.plan import PlanNode
from repro.optimizer.provenance import (
    Observations,
    harvest_observations,
    runtime_injection,
    translate_observations,
)
from repro.sql.binder import BoundQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database


@dataclass
class AdaptiveExecutionResult(ExecutionResult):
    """An :class:`ExecutionResult` augmented with the adaptive loop's history.

    ``node_metrics`` accumulates the metrics of every round (node ids are
    globally unique), so EXPLAIN ANALYZE of the final plan finds its nodes and
    ``rows_processed`` counts every operator the loop actually ran.  ``steps``
    holds one record per mid-query re-plan, in the rewrite loop's shape (the
    pseudo-table is the step's temp table; nothing is materialized).
    """

    steps: List[ReoptimizationStep] = field(default_factory=list)
    replanning_work: float = 0.0
    rounds: int = 1
    pseudo_tables: Tuple[str, ...] = ()
    final_planned: Optional[PlannedQuery] = None
    final_query: Optional[BoundQuery] = None

    @property
    def replanned(self) -> bool:
        """True if at least one mid-query re-plan happened."""
        return bool(self.steps)


class AdaptiveExecutor:
    """Drives stage-wise execution with mid-query re-planning.

    Args:
        database: the engine substrate (executor, optimizer, catalog).
        policy: re-optimization trigger policy (threshold, iteration cap,
            short-query cutoff).  ``trigger_site`` is effectively
            ``"lowest"``: stage-wise execution observes breakers bottom-up.
        injector: optional cardinality injector the caller planned with;
            runtime observations are chained in front of it on every
            re-planning round.
    """

    def __init__(
        self,
        database: "Database",
        policy: Optional[ReoptimizationPolicy] = None,
        injector: Optional[CardinalityInjector] = None,
    ) -> None:
        self._db = database
        self.policy = policy or ReoptimizationPolicy()
        if self.policy.trigger_site != "lowest":
            # Stage-wise execution cannot look ahead: the first violating
            # breaker in bottom-up order is where it stands when it decides.
            warnings.warn(
                f"adaptive execution always triggers at the lowest violating "
                f"pipeline breaker; trigger_site="
                f"{self.policy.trigger_site!r} is a simulation-only ablation "
                "and is ignored here",
                stacklevel=2,
            )
        self._injector = injector

    def execute(self, planned: PlannedQuery) -> AdaptiveExecutionResult:
        """Execute ``planned`` adaptively and return the augmented result."""
        db = self._db
        policy = self.policy
        executor = db.executor
        handover = Handover(planned.plan, db.catalog)
        observations: Observations = {}
        steps: List[ReoptimizationStep] = []
        pseudo_names: List[str] = []
        merged_metrics: Dict[int, NodeMetrics] = {}
        total_work = 0.0
        replanning_work = 0.0
        wall_seconds = 0.0
        current_query = planned.query
        current_planned = planned
        try:
            for iteration in range(policy.max_iterations + 1):
                adapt = self._should_adapt(iteration, current_query, current_planned)
                staged = executor.execute_staged(
                    current_planned.plan, policy.violates if adapt else None
                )
                wall_seconds += staged.wall_seconds
                round_work = self._performed_work(
                    current_planned.plan, staged.node_metrics
                )
                total_work += round_work
                merged_metrics.update(staged.node_metrics)
                observations.update(
                    harvest_observations(current_planned.plan, staged.node_metrics)
                )
                if staged.trigger is None:
                    break
                current_query, current_planned, observations, step = self._replan(
                    current_query, staged, iteration, round_work,
                    observations, handover, pseudo_names,
                )
                steps.append(step)
                replanning_work += current_planned.stats.planning_work
                # The round is over: only the handed-over columns live on.
                staged = None
            else:  # pragma: no cover - the last iteration never triggers
                raise ReoptimizationError(
                    f"adaptive execution of {planned.query.name!r} did not terminate"
                )
        finally:
            for name in pseudo_names:
                if name in db.catalog:
                    db.drop_intermediate(name)

        return AdaptiveExecutionResult(
            result=handover.restore(staged.result),
            total_work=total_work,
            wall_seconds=wall_seconds,
            node_metrics=merged_metrics,
            engine=executor.engine,
            steps=steps,
            replanning_work=replanning_work,
            rounds=len(steps) + 1,
            pseudo_tables=tuple(pseudo_names),
            final_planned=current_planned,
            final_query=current_query,
        )

    # -- internals ----------------------------------------------------------

    def _should_adapt(
        self, iteration: int, query: BoundQuery, planned: PlannedQuery
    ) -> bool:
        """Whether this round should pause at breakers and consider re-planning."""
        if iteration >= self.policy.max_iterations:
            return False
        if query.num_tables() <= 1:
            return False
        if iteration == 0 and self.policy.min_query_seconds > 0.0:
            # A real adaptive executor cannot know the actual runtime up
            # front; gate the short-query cutoff on the optimizer's estimate
            # (the simulation gates on the observed first execution instead).
            estimated_seconds = planned.plan.estimated_cost / WORK_UNITS_PER_SECOND
            if estimated_seconds < self.policy.min_query_seconds:
                return False
        return True

    @staticmethod
    def _performed_work(plan: PlanNode, metrics: Dict[int, NodeMetrics]) -> float:
        """Work actually performed this round: own work of every executed node."""
        return sum(
            metrics[node.node_id].own_work
            for node in plan.walk()
            if node.node_id in metrics
        )

    def _replan(
        self,
        query: BoundQuery,
        staged: StagedExecution,
        iteration: int,
        round_work: float,
        observations: Observations,
        handover: Handover,
        pseudo_names: List[str],
    ) -> Tuple[BoundQuery, PlannedQuery, Observations, ReoptimizationStep]:
        """Hand the intermediate over and plan the remainder of the query.

        Returns the rewritten query, its plan, the observations translated
        into the rewritten query's alias space (the loop carries them into
        later rounds), and the step record: charged the round's performed
        work, no materialization.
        """
        db = self._db
        trigger = staged.trigger
        intermediate = staged.trigger_result
        name = db.next_temp_table_name(base="stage")
        rewritten, columns = handover.collapse(
            query, trigger.aliases, name, f"adapt{iteration + 1}"
        )
        db.register_intermediate_result(
            name, intermediate, columns, alias_tables=query.alias_tables
        )
        pseudo_names.append(name)

        translated = translate_observations(
            observations, frozenset(trigger.aliases), name
        )
        injector = runtime_injection(translated, self._injector)
        planned = db.plan(rewritten, injector=injector)
        rows = len(intermediate)
        step = ReoptimizationStep(
            index=iteration,
            trigger_label=trigger.label(),
            trigger_aliases=tuple(sorted(trigger.aliases)),
            estimated_rows=trigger.estimated_rows,
            actual_rows=rows,
            q_error=q_error(trigger.estimated_rows, rows),
            temp_table=name,
            temp_rows=rows,
            charged_work=round_work,
            materialize_work=0.0,
            create_sql=f"-- adaptive handover: {rows} rows kept in memory as {name}",
        )
        return rewritten, planned, translated, step
