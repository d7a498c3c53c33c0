"""Cardinality injection hooks.

The paper modifies PostgreSQL "to allow us to replace the PostgreSQL
cardinality estimates with arbitrary values".  This module is the equivalent
hook in our engine: a :class:`CardinalityInjector` is consulted by the
:class:`~repro.optimizer.cardinality.CardinalityEstimator` for every alias
subset before the statistical model is used.  No injector (``None``) is plain
optimizer behaviour, the "PostgreSQL" regime; the estimators of
:mod:`repro.optimizer.estimators` are injectors too.

Three injectors cover the paper's experiments:

* :class:`DictInjection` — explicit per-subset values; used by the LEO-style
  feedback loop (Section IV-E) and by unit tests.
* :class:`PerfectInjection` — wraps a true-cardinality oracle and answers for
  every subset of at most ``max_tables`` aliases; this is perfect-(n).
* :class:`ChainInjection` — asks several injectors in order; the optimizer
  chains a caller's injector ahead of the database's estimator this way.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional

from repro.sql.binder import BoundQuery


class CardinalityInjector:
    """Interface: optionally override the estimate for an alias subset."""

    def lookup(self, query: BoundQuery, subset: FrozenSet[str]) -> Optional[float]:
        """Return the injected cardinality for ``subset`` or ``None``."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short description used in benchmark reports."""
        return type(self).__name__


class DictInjection(CardinalityInjector):
    """Injects explicit values for specific alias subsets."""

    def __init__(self, values: Optional[Dict[FrozenSet[str], float]] = None) -> None:
        self._values: Dict[FrozenSet[str], float] = {}
        if values:
            for subset, rows in values.items():
                self.set(subset, rows)

    def set(self, subset, rows: float) -> None:
        """Set (or overwrite) the injected value for ``subset``."""
        self._values[frozenset(subset)] = float(rows)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, subset) -> bool:
        return frozenset(subset) in self._values

    def lookup(self, query: BoundQuery, subset: FrozenSet[str]) -> Optional[float]:
        return self._values.get(frozenset(subset))

    def describe(self) -> str:
        return f"injected({len(self._values)} subsets)"


class PerfectInjection(CardinalityInjector):
    """Perfect-(n): true cardinalities for subsets of at most ``max_tables``.

    The oracle is any callable mapping ``(query, subset)`` to the true row
    count; in practice it is
    :meth:`repro.core.oracle.TrueCardinalityOracle.true_cardinality`.
    """

    def __init__(
        self,
        oracle: Callable[[BoundQuery, FrozenSet[str]], float],
        max_tables: int,
    ) -> None:
        self._oracle = oracle
        self.max_tables = int(max_tables)

    def lookup(self, query: BoundQuery, subset: FrozenSet[str]) -> Optional[float]:
        if self.max_tables <= 0:
            return None
        if len(subset) > self.max_tables:
            return None
        return float(self._oracle(query, subset))

    def describe(self) -> str:
        return f"perfect-({self.max_tables})"


class ChainInjection(CardinalityInjector):
    """Tries a sequence of injectors in order; first answer wins.

    Used to combine re-optimization feedback (exact temp-table cardinalities)
    with a perfect-(n) oracle in the Figure 8 experiment.
    """

    def __init__(self, injectors) -> None:
        self._injectors = list(injectors)

    def lookup(self, query: BoundQuery, subset: FrozenSet[str]) -> Optional[float]:
        for injector in self._injectors:
            value = injector.lookup(query, subset)
            if value is not None:
                return value
        return None

    def describe(self) -> str:
        return " + ".join(injector.describe() for injector in self._injectors)
