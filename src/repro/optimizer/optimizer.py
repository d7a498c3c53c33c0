"""Optimizer facade.

:class:`Optimizer` glues the pieces together: it builds a
:class:`~repro.optimizer.cardinality.CardinalityEstimator` (with the caller's
cardinality injector chained ahead of the database's estimator source), runs
the :class:`~repro.optimizer.enumeration.JoinEnumerator` and returns a
:class:`PlannedQuery` bundling the physical plan with the planning statistics
the benchmarks need (number of estimates, candidate plans considered,
simulated planning time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.catalog.catalog import Catalog
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.enumeration import JoinEnumerator, PlannerConfig
from repro.optimizer.injection import CardinalityInjector, ChainInjection
from repro.optimizer.plan import PlanNode
from repro.sql.binder import BoundQuery

# Planning effort is converted into "simulated planning seconds" so that the
# benchmark reports have the same units as the paper's figures.  The constant
# is calibrated so that planning a mid-sized JOB-like query costs a few tens
# of milliseconds, in line with the planning/execution balance in the paper.
PLANNING_UNITS_PER_SECOND = 20_000.0


@dataclass
class PlanningStats:
    """Statistics describing one optimizer invocation."""

    estimate_calls: int = 0
    estimates_by_size: Dict[int, int] = field(default_factory=dict)
    candidates_considered: int = 0

    @property
    def planning_work(self) -> float:
        """Total planning effort in abstract units."""
        return float(self.estimate_calls + self.candidates_considered)

    @property
    def planning_seconds(self) -> float:
        """Planning effort rescaled to simulated seconds."""
        return self.planning_work / PLANNING_UNITS_PER_SECOND


@dataclass
class PlannedQuery:
    """The result of optimizing one bound query."""

    query: BoundQuery
    plan: PlanNode
    stats: PlanningStats

    @property
    def estimated_cost(self) -> float:
        """Optimizer's total cost estimate of the chosen plan."""
        return self.plan.estimated_cost


class Optimizer:
    """Plans bound queries against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        cost_model: Optional[CostModel] = None,
        planner_config: Optional[PlannerConfig] = None,
        source: Optional[CardinalityInjector] = None,
    ) -> None:
        self._catalog = catalog
        self.cost_model = cost_model or CostModel(catalog)
        self.config = planner_config or PlannerConfig()
        #: The database's estimator (:mod:`repro.optimizer.estimators`), asked
        #: after the caller's injector; ``None`` = the built-in model alone.
        self.source = source

    def plan(
        self,
        query: BoundQuery,
        injector: Optional[CardinalityInjector] = None,
    ) -> PlannedQuery:
        """Optimize ``query`` and return the chosen plan with planning stats.

        Args:
            query: a bound query.
            injector: optional cardinality injection hook (perfect-(n),
                feedback corrections, temp-table cardinalities...); it
                answers before the estimator source.
        """
        if injector is None:
            injector = self.source
        elif self.source is not None:
            injector = ChainInjection([injector, self.source])
        estimator = CardinalityEstimator(self._catalog, query, injector=injector)
        enumerator = JoinEnumerator(
            self._catalog, query, estimator, self.cost_model, self.config
        )
        plan = enumerator.plan()
        stats = PlanningStats(
            estimate_calls=estimator.estimate_calls,
            estimates_by_size=dict(estimator.estimates_by_size),
            candidates_considered=enumerator.candidates_considered,
        )
        return PlannedQuery(query=query, plan=plan, stats=stats)
