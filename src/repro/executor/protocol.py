"""The pull-style operator protocol every execution engine implements.

The executor's scheduler (:class:`repro.executor.executor.Executor`) drives a
physical plan by *pulling* each node's result from an operator set.  An
operator set is anything satisfying :class:`OperatorSet`: one callable per
plan-node shape, consuming child results and producing a new result.  Two
implementations exist, both plain modules (modules satisfy the protocol
structurally):

* :data:`ExecutionEngine.VECTORIZED` — the columnar batch operators in
  :mod:`repro.executor.operators`;
* :data:`ExecutionEngine.REFERENCE` — the row-at-a-time oracle in
  :mod:`repro.executor.reference`.

Because one scheduler drives both through this protocol, work accounting
stays engine-invariant by construction and the vectorized engine is
differential-testable against its oracle.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Protocol, Sequence, Tuple

from repro.errors import ConfigError

QualifiedColumn = Tuple[str, str]


class ExecutionEngine(enum.Enum):
    """Which operator implementation executes plans."""

    VECTORIZED = "vectorized"
    REFERENCE = "reference"

    @classmethod
    def from_name(cls, name: "str | ExecutionEngine") -> "ExecutionEngine":
        """Coerce a CLI/config string (or an engine) to an engine.

        An unknown name is a :class:`~repro.errors.ConfigError` naming the
        engines there are.
        """
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            options = ", ".join(engine.value for engine in cls)
            raise ConfigError(
                f"unknown execution engine {name!r} (expected one of: {options})"
            ) from None


class OperatorSet(Protocol):
    """One relational operator per plan-node shape (pull-style).

    Every result object is duck-type compatible between engines
    (:class:`~repro.executor.batch.ColumnBatch` or
    :class:`~repro.executor.reference.ResultSet`): ``len``, ``columns``,
    ``rows``, ``column_position``, ``column_values`` and ``resolver`` behave
    identically, which is what lets the scheduler stay engine-agnostic.

    ``index_join_results`` joins an outer result with the output of a scan
    of ``inner_table`` through that table's index on ``joins[0]``'s inner
    column.  It returns the rows (and order, and ``observed`` values)
    ``join_results`` returns for the same inputs, plus the number of rows
    the index lookups fetch over all outer rows — the match count an index
    nested loop is charged for.

    Operators that run a pipeline breaker accept an ``observed`` dict and
    record runtime statistics into it (``build_rows``/``probe_rows`` for
    joins; ``segments_skipped``/``columns_decoded`` for late-materializing
    partitioned scans); the scheduler copies these into the node's
    :class:`NodeMetrics`.

    ``scan_table``'s ``columns`` is the planner's projection-pushdown set
    (``None`` = full width).  It must include every column the pushed-down
    ``filters`` (and ``index_filter``) reference — engines evaluate filters
    against the narrowed batch.  Engines may ignore it (the reference
    oracle scans full-width on purpose).
    """

    def scan_table(
        self,
        catalog,
        alias: str,
        table_name: str,
        filters: Sequence,
        index_column: Optional[str] = None,
        index_filter=None,
        observed: Optional[Dict[str, int]] = None,
        pruned_partitions: Optional[Sequence[int]] = None,
        columns: Optional[Sequence[str]] = None,
    ): ...

    def join_results(
        self, left, right, joins: Sequence, observed: Optional[Dict[str, int]] = None
    ): ...

    def index_join_results(
        self,
        outer,
        inner,
        joins: Sequence,
        catalog,
        inner_table: str,
        observed: Optional[Dict[str, int]] = None,
    ) -> Tuple[object, int]: ...

    def cross_join_results(
        self, left, right, observed: Optional[Dict[str, int]] = None
    ): ...

    def filter_result(self, result, predicates: Sequence): ...

    def empty_result(self, columns: Sequence[QualifiedColumn]): ...


    def aggregate_result(self, result, select_items: Sequence): ...

    def group_aggregate_result(
        self, result, group_keys: Sequence, select_items: Sequence
    ): ...

    def sort_result(
        self,
        result,
        keys: Sequence,
        tie_break: Sequence = (),
        tie_break_all: bool = False,
    ): ...

    def limit_result(self, result, limit: int, offset: int = 0): ...

    def distinct_result(self, result): ...


def operators_for(engine: "str | ExecutionEngine") -> OperatorSet:
    """Resolve an engine name to its operator set."""
    if ExecutionEngine.from_name(engine) is ExecutionEngine.REFERENCE:
        import repro.executor.reference as reference_operators

        return reference_operators
    import repro.executor.operators as vectorized_operators

    return vectorized_operators
