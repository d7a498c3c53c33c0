"""Pluggable cardinality-estimation strategies.

The optimizer's :class:`~repro.optimizer.cardinality.CardinalityEstimator`
historically hard-wired one model: PostgreSQL-style statistics under
independence assumptions.  This module generalizes it behind a PostBOUND-style
strategy interface — a :class:`CardinalityStrategy` is set up once per query
and then asked for subset estimates; returning ``None`` defers to the built-in
statistical model, so strategies only override where they know better.

Four strategies ship:

* :class:`StatsEstimator` — the default; delegates single-table estimates to
  :class:`~repro.optimizer.cardinality.SelectivityEstimator` and leaves join
  estimates to the built-in recursive model.  Plans are bit-identical to the
  pre-strategy engine.
* :class:`UpperBoundEstimator` — pessimistic hard bounds only: zone-map scan
  bounds per table, multiplied across joins.  Never underestimates an inner
  join, at the cost of gross overestimates.
* :class:`SamplingEstimator` — evaluates single-table predicates over the
  row sample ANALYZE keeps, scaling the match fraction to the table
  cardinality; joins defer to the model.
* :class:`FeedbackEstimator` — consults the persistent
  :class:`~repro.optimizer.feedback.FeedbackStore` of runtime-observed
  subtree cardinalities before falling back to statistics, so repeated
  workloads are planned from truth.

A strategy instance is shared by every connection and server session of a
database, so implementations must be thread-safe; all four built-ins are
stateless between ``setup_for_query`` calls.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.catalog.catalog import Catalog
from repro.optimizer.cardinality import (
    MIN_ROWS,
    SelectivityEstimator,
    scan_upper_bound,
)
from repro.optimizer.feedback import DEFAULT_FEEDBACK_CAPACITY, FeedbackStore
from repro.sql.binder import BoundQuery


class CardinalityStrategy:
    """Interface every estimation strategy implements.

    Lifecycle (per planned query): the optimizer calls
    :meth:`setup_for_query` once, then :meth:`estimate_subset` for every
    connected alias subset the join enumerator probes.  ``estimate_subset``
    returns estimated rows, or ``None`` to defer to the built-in statistical
    model for that subset.  Cardinality injectors (perfect-(n), runtime
    feedback within one re-optimization) still take precedence over the
    strategy.
    """

    #: Registry name; also what ``EngineSettings.estimator`` selects.
    name = "abstract"

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.selectivity = SelectivityEstimator(catalog)

    def setup_for_query(self, query: BoundQuery) -> None:
        """Hook invoked once before a query's subsets are estimated."""

    def estimate_subset(
        self, query: BoundQuery, subset: FrozenSet[str]
    ) -> Optional[float]:
        """Estimated rows for ``subset``, or ``None`` to use the built-in model."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable description for EXPLAIN and experiment reports."""
        return self.name


class StatsEstimator(CardinalityStrategy):
    """PostgreSQL-style statistics (the engine's historical behaviour).

    Single-table subsets go through
    :meth:`~repro.optimizer.cardinality.SelectivityEstimator.scan_rows`
    exactly as before the strategy interface existed; join subsets defer to
    the built-in recursive decomposition (which uses the same statistics), so
    the produced plans — and the paper-figure numbers — are unchanged.
    """

    name = "stats"

    def estimate_subset(
        self, query: BoundQuery, subset: FrozenSet[str]
    ) -> Optional[float]:
        if len(subset) != 1:
            return None
        alias = next(iter(subset))
        return self.selectivity.scan_rows(
            query.table_for(alias), query.filters_for(alias)
        )


class UpperBoundEstimator(CardinalityStrategy):
    """Hard upper bounds: zone-map scan bounds, multiplied across joins.

    An inner join can never produce more rows than the Cartesian product of
    its inputs, and a scan never more than the unpruned partitions hold, so
    these estimates are sound bounds rather than expectations.  Useful as a
    pessimistic baseline: it never triggers "underestimate" re-optimizations
    but ranks join orders only by bound tightness.
    """

    name = "upper-bound"

    def estimate_subset(
        self, query: BoundQuery, subset: FrozenSet[str]
    ) -> Optional[float]:
        rows = 1.0
        for alias in subset:
            table = query.table_for(alias)
            bound = scan_upper_bound(
                self.catalog, table, query.filters_for(alias)
            )
            if bound is None:
                bound = self.selectivity.table_rows(table)
            rows *= max(MIN_ROWS, bound)
        return max(MIN_ROWS, rows)


class SamplingEstimator(CardinalityStrategy):
    """Predicate evaluation over ANALYZE-maintained row samples.

    For a single-table subset, the filter conjunction is compiled to a row
    predicate and evaluated against the table's row sample; the match
    fraction scales to the table cardinality.  Correlated predicates — the
    independence model's blind spot — are estimated correctly as long as the
    sample sees them.  Joins and tables without a sample defer to the model.
    """

    name = "sampling"

    def estimate_subset(
        self, query: BoundQuery, subset: FrozenSet[str]
    ) -> Optional[float]:
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


class FeedbackEstimator(CardinalityStrategy):
    """Runtime-observed cardinalities from the persistent feedback store.

    Subtrees the engine has executed before — in any session, under any alias
    spelling, parameterized or not — are estimated from their observed row
    counts; everything else defers to the statistical model.  Because the
    re-optimization trigger fires on Q-error between estimate and
    observation, feedback-seeded plans re-plan measurably less on repeated
    workloads.
    """

    name = "feedback"

    def __init__(self, catalog: Catalog, store: Optional[FeedbackStore] = None) -> None:
        super().__init__(catalog)
        self.store = store if store is not None else FeedbackStore()

    def estimate_subset(
        self, query: BoundQuery, subset: FrozenSet[str]
    ) -> Optional[float]:
        observed = self.store.lookup(query, subset)
        if observed is not None:
            return max(MIN_ROWS, observed)
        if len(subset) == 1:
            alias = next(iter(subset))
            return self.selectivity.scan_rows(
                query.table_for(alias), query.filters_for(alias)
            )
        return None

    def describe(self) -> str:
        return f"{self.name}[{self.store.describe()}]"


#: Registry of selectable strategies (``EngineSettings.estimator`` values).
STRATEGIES = {
    StatsEstimator.name: StatsEstimator,
    UpperBoundEstimator.name: UpperBoundEstimator,
    SamplingEstimator.name: SamplingEstimator,
    FeedbackEstimator.name: FeedbackEstimator,
}


def strategy_names() -> List[str]:
    """The selectable strategy names, sorted."""
    return sorted(STRATEGIES)


def create_strategy(
    name: str,
    catalog: Catalog,
    feedback: Optional[FeedbackStore] = None,
    feedback_capacity: int = DEFAULT_FEEDBACK_CAPACITY,
) -> CardinalityStrategy:
    """Instantiate the strategy registered under ``name``.

    ``feedback`` supplies the (usually database-shared) store consulted by
    :class:`FeedbackEstimator`; other strategies ignore it.
    """
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown estimator {name!r}; choose one of {strategy_names()}"
        ) from None
    if cls is FeedbackEstimator:
        store = feedback if feedback is not None else FeedbackStore(feedback_capacity)
        return FeedbackEstimator(catalog, store)
    return cls(catalog)
