"""Re-optimization reports.

The materialize-and-re-plan loop itself (paper Section V) lives in
:class:`repro.core.interceptor.ReoptimizationInterceptor`, where it wraps
the execute stage of the query-lifecycle pipeline; run statements through
:func:`repro.connect` (or a one-off
:class:`~repro.engine.pipeline.QueryPipeline` with the interceptor) to
drive it.  This module keeps the report dataclasses the loop produces —
every experiment and the mid-query ablation consume them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.executor.executor import ExecutionResult, WORK_UNITS_PER_SECOND
from repro.optimizer.optimizer import PLANNING_UNITS_PER_SECOND, PlannedQuery
from repro.sql.binder import BoundQuery


@dataclass
class ReoptimizationStep:
    """One re-plan round of the loop, under either handover.

    The temp-table handover's ``temp_table`` is a materialized, ANALYZEd
    temporary table; the in-memory handover's is the pseudo-table it handed
    over, with ``materialize_work`` 0.0.
    """

    index: int
    trigger_label: str
    trigger_aliases: Tuple[str, ...]
    estimated_rows: float
    actual_rows: int
    q_error: float
    temp_table: str
    temp_rows: int
    charged_work: float
    materialize_work: float
    create_sql: str


@dataclass
class ReoptimizationReport:
    """Outcome of re-optimizing (or deciding not to re-optimize) one query."""

    query_name: Optional[str]
    steps: List[ReoptimizationStep] = field(default_factory=list)
    final_planned: Optional[PlannedQuery] = None
    final_execution: Optional[ExecutionResult] = None
    final_query: Optional[BoundQuery] = None
    total_planning_work: float = 0.0
    total_execution_work: float = 0.0
    # Executor throughput accumulated across all rounds: the output rows of
    # every plan node that ran (each at most once per round; a round cut
    # short at its trigger counts only the nodes up to it) and the wall time
    # inside operators.  Named to match the ExecutionResult interface.
    rows_processed: int = 0
    wall_seconds: float = 0.0

    @property
    def reoptimized(self) -> bool:
        """True if at least one temporary table was created."""
        return bool(self.steps)

    @property
    def planning_seconds(self) -> float:
        """Simulated planning time including all re-planning rounds."""
        return self.total_planning_work / PLANNING_UNITS_PER_SECOND

    @property
    def execution_seconds(self) -> float:
        """Simulated execution time (temp-table creation plus final SELECT)."""
        return self.total_execution_work / WORK_UNITS_PER_SECOND

    @property
    def total_seconds(self) -> float:
        """Planning plus execution, in simulated seconds."""
        return self.planning_seconds + self.execution_seconds

    @property
    def rows(self) -> List[tuple]:
        """Rows of the final result."""
        if self.final_execution is None:
            return []
        return self.final_execution.result.rows

    def rewritten_sql(self) -> str:
        """The full rewritten script (CREATE TEMP TABLE ... ; final SELECT)."""
        parts = [step.create_sql for step in self.steps]
        if self.final_query is not None:
            parts.append(self.final_query.to_sql())
        return "\n\n".join(parts)
