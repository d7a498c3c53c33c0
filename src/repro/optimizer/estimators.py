"""Cardinality estimators: the sources ``EngineSettings.estimator`` selects.

The paper replaces the optimizer's cardinality estimates "with arbitrary
values" through one hook; here that hook is the
:class:`~repro.optimizer.injection.CardinalityInjector`, and every estimator
in this module is one.  The optimizer asks a single chain per alias subset:
the caller's injector (perfect-(n), re-optimization feedback), then the
database's estimator source, then the built-in PostgreSQL-style model of
:mod:`repro.optimizer.cardinality`.  A source answers ``None`` to pass the
subset on down the chain, so it only overrides where it knows better.

Four estimator names are registered in :data:`ESTIMATORS`:

* ``"stats"`` — the default, and no source at all: the built-in model is
  the statistics estimator the paper's figures run under.
* :class:`UpperBoundEstimator` — pessimistic hard bounds only: zone-map scan
  bounds per table, multiplied across joins.  Never underestimates an inner
  join, at the cost of gross overestimates.
* :class:`SamplingEstimator` — evaluates single-table predicates over the
  row sample ANALYZE keeps, scaling the match fraction to the table
  cardinality; joins fall through to the model.
* :class:`FeedbackEstimator` — consults the persistent
  :class:`~repro.optimizer.feedback.FeedbackStore` of runtime-observed
  subtree cardinalities, so repeated workloads are planned from truth.

A source is shared by every connection and server session of a database, so
implementations must be thread-safe; the built-ins keep no per-query state.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

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


class SamplingEstimator(CardinalityInjector):
    """Predicate evaluation over ANALYZE-maintained row samples.

    For a single-table subset, the filter conjunction is compiled to a row
    predicate and evaluated against the table's row sample; the match
    fraction scales to the table cardinality.  Correlated predicates — the
    independence model's blind spot — are estimated correctly as long as the
    sample sees them.  Joins and tables without a sample fall through.
    """

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.selectivity = SelectivityEstimator(catalog)

    def lookup(self, query: BoundQuery, subset: FrozenSet[str]) -> Optional[float]:
        if len(subset) != 1:
            return None
        alias = next(iter(subset))
        filters = query.filters_for(alias)
        if not filters:
            return None
        table = query.table_for(alias)
        stats = self.catalog.stats(table)
        sample = getattr(stats, "sample", None)
        if not sample:
            return None
        try:
            matches = self._count_matches(alias, table, filters, sample)
        except Exception:
            # Anything the sample evaluator cannot handle (exotic expression,
            # type surprises) falls back to the statistical model.
            return None
        fraction = matches / len(sample)
        rows = fraction * self.selectivity.table_rows(table)
        bound = scan_upper_bound(self.catalog, table, filters)
        if bound is not None:
            rows = min(rows, bound)
        return max(MIN_ROWS, rows)

    def _count_matches(
        self, alias: str, table: str, filters: List, sample: List
    ) -> int:
        # Imported lazily: the executor package is a consumer of the optimizer
        # elsewhere, so the import lives here to keep module loading acyclic.
        from repro.executor.expressions import compile_conjunction

        resolver = _SampleResolver(alias, self.catalog, table)
        predicate = compile_conjunction(filters, resolver)
        return sum(1 for row in sample if predicate(row))


class _SampleResolver:
    """Maps ``alias.column`` to the schema position of a sampled row tuple."""

    def __init__(self, alias: str, catalog: Catalog, table: str) -> None:
        schema = catalog.table(table).schema
        self._alias = alias
        self._positions: Dict[str, int] = {
            col.name: index for index, col in enumerate(schema.columns)
        }

    def position(self, alias: str, column: str) -> int:
        if alias != self._alias or column not in self._positions:
            raise KeyError(f"{alias}.{column} not in sample")
        return self._positions[column]

    def has(self, alias: str, column: str) -> bool:
        return alias == self._alias and column in self._positions


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
    "sampling": SamplingEstimator,
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
