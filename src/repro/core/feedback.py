"""LEO-style selective improvement of cardinality estimates (Section IV-E).

The paper simulates the "learn from executed queries" family of techniques
(LEO) as follows: repeatedly execute the query; find the *lowest* operator in
the plan tree whose cardinality estimation error exceeds a threshold; fix
that estimate (and every estimate below it in the plan) to its true value;
re-optimize; repeat until no operator violates the threshold.  Figure 5 plots
the per-iteration execution time for three poorly performing queries and
shows that (a) many corrections can be needed before a good plan emerges and
(b) partially corrected estimates can make the plan *worse* than the original.

:class:`FeedbackLoop` reproduces that simulation on our engine, using a
:class:`~repro.optimizer.injection.DictInjection` as the store of corrected
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from repro.core.triggers import q_error
from repro.engine.database import Database
from repro.executor.executor import WORK_UNITS_PER_SECOND
from repro.optimizer.injection import DictInjection
from repro.optimizer.plan import JoinNode, PlanNode, ScanNode
from repro.sql.binder import BoundQuery


@dataclass
class FeedbackIteration:
    """One execute-and-correct round."""

    index: int
    execution_work: float
    corrected_subset: Optional[FrozenSet[str]]
    corrected_estimate: float
    corrected_actual: int
    corrections_so_far: int

    @property
    def execution_seconds(self) -> float:
        """Simulated execution time of this iteration's plan."""
        return self.execution_work / WORK_UNITS_PER_SECOND


@dataclass
class FeedbackResult:
    """Full trajectory of the iterative-correction simulation for one query."""

    query_name: Optional[str]
    iterations: List[FeedbackIteration] = field(default_factory=list)
    injection: DictInjection = field(default_factory=DictInjection)


class FeedbackLoop:
    """Iteratively corrects cardinality estimates from observed executions."""

    def __init__(
        self,
        database: Database,
        threshold: float = 32.0,
        max_iterations: int = 64,
    ) -> None:
        self._database = database
        self.threshold = threshold
        self.max_iterations = max_iterations

    def run(self, query: BoundQuery) -> FeedbackResult:
        """Run the iterative-correction simulation for one query."""
        result = FeedbackResult(query_name=query.name)
        injection = result.injection
        for index in range(self.max_iterations):
            planned = self._database.plan(query, injector=injection)
            execution = self._database.execute_plan(planned)
            violator = self._lowest_violation(planned.plan)
            if violator is None:
                result.iterations.append(
                    FeedbackIteration(
                        index=index,
                        execution_work=execution.total_work,
                        corrected_subset=None,
                        corrected_estimate=0.0,
                        corrected_actual=0,
                        corrections_so_far=len(injection),
                    )
                )
                break
            corrections = self._correct_subtree(violator, injection)
            result.iterations.append(
                FeedbackIteration(
                    index=index,
                    execution_work=execution.total_work,
                    corrected_subset=frozenset(violator.aliases),
                    corrected_estimate=violator.estimated_rows,
                    corrected_actual=violator.actual_rows or 0,
                    corrections_so_far=len(injection),
                )
            )
            if corrections == 0:
                # Nothing new could be corrected; further rounds would loop.
                break
        return result

    # -- internals -----------------------------------------------------------

    def _lowest_violation(self, plan: PlanNode) -> Optional[PlanNode]:
        """Lowest operator (scan or join) whose Q-error exceeds the threshold."""
        candidates: List[PlanNode] = []
        for node in plan.walk():
            if not isinstance(node, (ScanNode, JoinNode)):
                continue
            if node.actual_rows is None:
                continue
            if q_error(node.estimated_rows, node.actual_rows) > self.threshold:
                candidates.append(node)
        if not candidates:
            return None
        candidates.sort(key=lambda node: (len(node.aliases), tuple(sorted(node.aliases))))
        return candidates[0]

    def _correct_subtree(self, violator: PlanNode, injection: DictInjection) -> int:
        """Pin the violator's estimate and every estimate below it to the truth.

        Returns the number of *new* corrections added to the injection store.
        """
        added = 0
        for node in violator.walk():
            if not isinstance(node, (ScanNode, JoinNode)):
                continue
            if node.actual_rows is None:
                continue
            subset = frozenset(node.aliases)
            if subset in injection:
                continue
            injection.set(subset, max(1.0, float(node.actual_rows)))
            added += 1
        return added
