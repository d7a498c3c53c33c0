"""Cost model.

A deliberately PostgreSQL-flavoured cost model: costs are abstract units
where reading one sequential page costs ``seq_page_cost`` and processing one
tuple costs ``cpu_tuple_cost``.  The same formulas are used twice:

* by the optimizer with *estimated* row counts, to pick a plan;
* by the executor with *actual* row counts, to account deterministic "work
  units" that stand in for execution time (see README, "Why charged work is
  engine-invariant").

This mirrors the paper's observation that cost models are adequate when their
cardinality inputs are right: feeding the same formulas the true row counts
yields a faithful, deterministic proxy for runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.catalog.catalog import Catalog


@dataclass
class CostParameters:
    """Tunable cost constants (PostgreSQL defaults, all-in-memory flavour).

    ``random_page_cost`` is kept above ``seq_page_cost`` (though below the
    PostgreSQL on-disk default of 4.0, since the paper's dataset is fully
    cached); this preserves the tension between index-nested-loop and hash
    joins without letting a single mis-planned index nested loop dominate the
    whole workload.
    """

    seq_page_cost: float = 1.0
    random_page_cost: float = 2.0
    cpu_tuple_cost: float = 0.01
    cpu_index_tuple_cost: float = 0.005
    cpu_operator_cost: float = 0.0025
    rows_per_page: int = 100
    hash_build_factor: float = 1.6
    sort_factor: float = 1.0


class CostModel:
    """Computes incremental operator costs from row counts.

    Every ``*_cost`` method returns the cost of the operator itself,
    excluding the cost of producing its inputs; plan-level totals are
    accumulated by the enumerator (estimates) and the executor (actuals).
    """

    def __init__(self, catalog: Catalog, params: CostParameters = None) -> None:
        self._catalog = catalog
        self.params = params or CostParameters()

    # -- scans ---------------------------------------------------------------

    def table_pages(self, table: str) -> int:
        """Page count of a base table under the configured rows-per-page."""
        storage = self._catalog.table(table)
        return storage.estimated_pages(self.params.rows_per_page)

    def seq_scan_cost(self, table: str, table_rows: float, num_filters: int) -> float:
        """Full scan of ``table`` applying ``num_filters`` predicates per row."""
        p = self.params
        io = self.table_pages(table) * p.seq_page_cost
        cpu = table_rows * (p.cpu_tuple_cost + num_filters * p.cpu_operator_cost)
        return io + cpu

    def index_scan_cost(
        self, table: str, matching_rows: float, num_residual_filters: int
    ) -> float:
        """Index lookup returning ``matching_rows`` rows plus residual filtering."""
        p = self.params
        pages_touched = max(1.0, matching_rows / p.rows_per_page)
        io = pages_touched * p.random_page_cost
        cpu = matching_rows * (
            p.cpu_index_tuple_cost
            + p.cpu_tuple_cost
            + num_residual_filters * p.cpu_operator_cost
        )
        return io + cpu

    # -- joins -----------------------------------------------------------------

    def hash_join_cost(
        self, outer_rows: float, inner_rows: float, output_rows: float
    ) -> float:
        """Build a hash table on the inner side, probe with the outer side."""
        p = self.params
        build = inner_rows * p.cpu_operator_cost * self.params.hash_build_factor
        probe = outer_rows * p.cpu_operator_cost
        emit = output_rows * p.cpu_tuple_cost
        return build + probe + emit

    def nested_loop_cost(
        self, outer_rows: float, inner_rows: float, output_rows: float
    ) -> float:
        """Plain nested loop: every outer row is compared with every inner row."""
        p = self.params
        compare = outer_rows * inner_rows * p.cpu_operator_cost
        emit = output_rows * p.cpu_tuple_cost
        return compare + emit

    def index_nested_loop_cost(
        self,
        outer_rows: float,
        output_rows: float,
        num_inner_filters: int,
    ) -> float:
        """Index nested loop: one index probe per outer row.

        This is the operator whose cost collapses when the outer cardinality
        is underestimated — the signature failure mode of the paper's slow
        queries (Section IV-D).
        """
        p = self.params
        probes = outer_rows * (p.random_page_cost + p.cpu_index_tuple_cost)
        matches = output_rows * (
            p.cpu_tuple_cost + num_inner_filters * p.cpu_operator_cost
        )
        return probes + matches

    # -- other operators ---------------------------------------------------------

    def aggregate_cost(self, input_rows: float, num_outputs: int) -> float:
        """Final aggregation over the join result."""
        p = self.params
        return input_rows * p.cpu_operator_cost * max(1, num_outputs)

    def hash_aggregate_cost(
        self, input_rows: float, num_groups: float, num_outputs: int
    ) -> float:
        """Grouped aggregation: hash every input row, emit one row per group."""
        p = self.params
        build = input_rows * p.cpu_operator_cost * p.hash_build_factor
        fold = input_rows * p.cpu_operator_cost * max(1, num_outputs)
        emit = num_groups * p.cpu_tuple_cost
        return build + fold + emit

    def sort_cost(self, input_rows: float, num_keys: int = 1) -> float:
        """Comparison sort of the query output on ``num_keys`` keys."""
        p = self.params
        cost = input_rows * p.cpu_tuple_cost
        if input_rows > 1:
            cost += (
                self.params.sort_factor
                * input_rows
                * math.log2(input_rows)
                * p.cpu_operator_cost
                * max(1, num_keys)
            )
        return cost

    def distinct_cost(self, input_rows: float, output_rows: float) -> float:
        """Hash-based duplicate elimination."""
        p = self.params
        return (
            input_rows * p.cpu_operator_cost * p.hash_build_factor
            + output_rows * p.cpu_tuple_cost
        )

    def limit_cost(self, output_rows: float) -> float:
        """Emitting the rows that survive LIMIT/OFFSET."""
        return output_rows * self.params.cpu_tuple_cost

    def materialize_cost(self, input_rows: float, num_columns: int) -> float:
        """Materializing an intermediate result into a temporary table.

        Charged as writing every tuple (cpu) plus the sequential pages the
        temporary table occupies — the paper notes full materialization is an
        upper bound on the cost a real mid-query re-optimizer would pay.
        """
        p = self.params
        pages = max(1.0, input_rows / p.rows_per_page)
        return (
            input_rows * p.cpu_tuple_cost * (1.0 + 0.1 * max(1, num_columns))
            + pages * p.seq_page_cost
        )
