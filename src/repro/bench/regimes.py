"""Estimation/execution regimes compared by the paper.

A *regime* is a way of planning and executing one query:

* ``postgres`` — the plain statistical estimator (the "PostgreSQL" bars);
* ``perfect-(n)`` — true cardinalities injected for joins of at most ``n``
  tables (perfect-(17) is "Perfect");
* ``reoptimized`` — the paper's materialize-and-re-plan scheme, optionally on
  top of perfect-(n) estimates (Figure 8), or the same loop with the
  in-memory (adaptive) handover (ablation).

Regimes produce :class:`QueryOutcome` records with simulated planning and
execution times, which the experiments aggregate into the paper's artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.interceptor import ReoptimizationInterceptor
from repro.core.oracle import TrueCardinalityOracle
from repro.core.triggers import ReoptimizationPolicy
from repro.engine.database import Database
from repro.engine.pipeline import QueryPipeline
from repro.optimizer.injection import CardinalityInjector
from repro.sql.binder import BoundQuery


@dataclass
class QueryOutcome:
    """Planning/execution accounting of one query under one regime.

    ``rows_processed`` / ``wall_seconds`` capture the *real* operator
    throughput of the run (rows produced across all plan nodes per
    wall-clock second) — the quantity the vectorized engine improves —
    while the simulated ``*_seconds`` fields stay engine-invariant.
    """

    query_name: str
    regime: str
    planning_seconds: float
    execution_seconds: float
    rows: int
    reoptimization_steps: int = 0
    rows_processed: int = 0
    wall_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Planning plus execution."""
        return self.planning_seconds + self.execution_seconds

    @property
    def rows_per_second(self) -> float:
        """Wall-clock operator throughput (0.0 when not measured)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.rows_processed / self.wall_seconds


class Regime:
    """Interface: run one bound query and account for it.

    Every regime serves queries through the engine's
    :class:`~repro.engine.pipeline.QueryPipeline`; a regime differs only in
    the interceptors it installs and the cardinality injector it plans with.
    Plan caching is deliberately absent here: the paper's figures charge
    every query a full planning round.
    """

    name = "regime"

    def run(self, database: Database, query: BoundQuery) -> QueryOutcome:
        """Execute ``query`` under this regime."""
        raise NotImplementedError

    def _pipeline(self, database: Database) -> QueryPipeline:
        """The lifecycle pipeline this regime runs queries through."""
        return QueryPipeline(database)

    def _outcome(self, query: BoundQuery, context) -> QueryOutcome:
        """Fold a finished lifecycle context into the regime's accounting."""
        steps = len(context.report.steps) if context.report is not None else 0
        return QueryOutcome(
            query_name=query.name or "",
            regime=self.name,
            planning_seconds=context.planning_seconds,
            execution_seconds=context.execution_seconds,
            rows=len(context.rows),
            reoptimization_steps=steps,
            rows_processed=context.rows_processed,
            wall_seconds=context.wall_seconds,
        )


class PostgresRegime(Regime):
    """Plain optimizer with its statistical estimates (the baseline)."""

    name = "postgres"

    def __init__(self, injector: Optional[CardinalityInjector] = None) -> None:
        self._injector = injector

    def run(self, database: Database, query: BoundQuery) -> QueryOutcome:
        context = self._pipeline(database).run(bound=query, injector=self._injector)
        return self._outcome(query, context)


class PerfectRegime(Regime):
    """Perfect-(n): true cardinalities for joins of at most ``n`` tables."""

    def __init__(self, oracle: TrueCardinalityOracle, max_tables: int) -> None:
        self._oracle = oracle
        self.max_tables = max_tables
        self.name = f"perfect-{max_tables}"

    def run(self, database: Database, query: BoundQuery) -> QueryOutcome:
        injector = self._oracle.perfect_injection(self.max_tables)
        context = self._pipeline(database).run(bound=query, injector=injector)
        return self._outcome(query, context)


class ReoptimizedRegime(Regime):
    """The paper's re-optimization scheme (optionally on top of perfect-(n)).

    ``adaptive`` is handed to the
    :class:`~repro.core.interceptor.ReoptimizationInterceptor`: ``True``
    hands rounds over in memory (adaptive execution) instead of through the
    paper's temporary tables.
    """

    def __init__(
        self,
        policy: Optional[ReoptimizationPolicy] = None,
        oracle: Optional[TrueCardinalityOracle] = None,
        perfect_tables: int = 0,
        name: Optional[str] = None,
        adaptive: Optional[bool] = None,
    ) -> None:
        self.policy = policy or ReoptimizationPolicy()
        self._oracle = oracle
        self.perfect_tables = perfect_tables
        self.adaptive = adaptive
        if name is not None:
            self.name = name
        elif perfect_tables > 0:
            self.name = f"reopt+perfect-{perfect_tables}"
        else:
            self.name = f"reopt-{int(self.policy.threshold)}"

    def _injector(self) -> Optional[CardinalityInjector]:
        if self._oracle is not None and self.perfect_tables > 0:
            return self._oracle.perfect_injection(self.perfect_tables)
        return None

    def run(self, database: Database, query: BoundQuery) -> QueryOutcome:
        pipeline = QueryPipeline(
            database, [ReoptimizationInterceptor(self.policy, adaptive=self.adaptive)]
        )
        context = pipeline.run(bound=query, injector=self._injector())
        return self._outcome(query, context)
