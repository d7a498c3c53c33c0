"""Cardinality estimators: the sources ``EngineSettings.estimator`` selects.

The paper replaces the optimizer's cardinality estimates "with arbitrary
values" through one hook; here that hook is the
:class:`~repro.optimizer.injection.CardinalityInjector`, and every estimator
in this module is one.  The optimizer asks a single chain per alias subset:
the caller's injector (perfect-(n), re-optimization feedback), then the
database's estimator source, then the built-in PostgreSQL-style model of
:mod:`repro.optimizer.cardinality`.  A source answers ``None`` to pass the
subset on down the chain, so it only overrides where it knows better.

Three estimator names are registered in :data:`ESTIMATORS`:

* ``"stats"`` — the default, and no source at all: the built-in model is
  the statistics estimator the paper's figures run under.
* :class:`UpperBoundEstimator` — pessimistic hard bounds only: zone-map scan
  bounds per table, multiplied across joins.  Never underestimates an inner
  join, at the cost of gross overestimates.
* :class:`FeedbackEstimator` — consults the persistent
  :class:`~repro.optimizer.feedback.FeedbackStore` of runtime-observed
  subtree cardinalities, so repeated workloads are planned from truth.

A source is shared by every connection and server session of a database, so
implementations must be thread-safe; the built-ins keep no per-query state.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.catalog.catalog import Catalog
from repro.optimizer.cardinality import (
    MIN_ROWS,
    SelectivityEstimator,
    scan_upper_bound,
)
from repro.optimizer.feedback import FeedbackStore
from repro.optimizer.injection import CardinalityInjector
from repro.sql.binder import BoundQuery


class UpperBoundEstimator(CardinalityInjector):
    """Hard upper bounds: zone-map scan bounds, multiplied across joins.

    An inner join can never produce more rows than the Cartesian product of
    its inputs, and a scan never more than the unpruned partitions hold, so
    these estimates are sound bounds rather than expectations.  Useful as a
    pessimistic baseline: it never triggers "underestimate" re-optimizations
    but ranks join orders only by bound tightness.
    """

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.selectivity = SelectivityEstimator(catalog)

    def lookup(self, query: BoundQuery, subset: FrozenSet[str]) -> Optional[float]:
        rows = 1.0
        # Sorted: a float product's rounding depends on its order, and a
        # frozenset's iteration order changes with the string hash seed.
        for alias in sorted(subset):
            table = query.table_for(alias)
            bound = scan_upper_bound(
                self.catalog, table, query.filters_for(alias)
            )
            if bound is None:
                bound = self.selectivity.table_rows(table)
            rows *= max(MIN_ROWS, bound)
        return max(MIN_ROWS, rows)


class FeedbackEstimator(CardinalityInjector):
    """Runtime-observed cardinalities from the persistent feedback store.

    Subtrees the engine has executed before — in any session, under any alias
    spelling, parameterized or not — are estimated from their observed row
    counts; everything else falls through to the statistical model.  Because
    the re-optimization trigger fires on Q-error between estimate and
    observation, feedback-seeded plans re-plan measurably less on repeated
    workloads.
    """

    def __init__(self, store: FeedbackStore) -> None:
        self.store = store

    def lookup(self, query: BoundQuery, subset: FrozenSet[str]) -> Optional[float]:
        return self.store.lookup(query, subset)

    def describe(self) -> str:
        return f"feedback[{self.store.describe()}]"


#: ``EngineSettings.estimator`` values and the source class each selects;
#: ``"stats"`` selects none, because the built-in model already is it.
ESTIMATORS = {
    "feedback": FeedbackEstimator,
    "stats": None,
    "upper-bound": UpperBoundEstimator,
}


def create_source(
    name: str, catalog: Catalog, feedback: FeedbackStore
) -> Optional[CardinalityInjector]:
    """The estimator source registered under ``name``, over ``catalog``.

    ``feedback`` is the (database-shared) store the feedback estimator reads.
    Names are validated by ``EngineSettings``; ``"stats"`` returns ``None``.
    """
    cls = ESTIMATORS[name]
    if cls is FeedbackEstimator:
        return FeedbackEstimator(feedback)
    return None if cls is None else cls(catalog)
