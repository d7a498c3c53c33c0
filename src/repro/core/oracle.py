"""True-cardinality oracle (the substrate behind perfect-(n)).

The paper's perfect-(n) construct gives the optimizer an oracle for the true
cardinality of every join of at most ``n`` tables.  This module computes
those true cardinalities by evaluating the sub-joins bottom-up.

To keep the oracle tractable even for sub-joins whose row counts explode
(several unfiltered fact tables star-joined through ``title``), intermediates
are *grouped*: each subset is represented as a mapping from the tuple of join
columns still needed **outside** the subset to the number of underlying rows
carrying that tuple.  Joining two grouped intermediates multiplies counts,
so the cardinality of a 40-million-row sub-join is computed from a few
hundred thousand grouped entries without materializing the rows.

Oracle work is *never* charged to planning or execution time — it stands in
for an idealized estimator, exactly as in the paper.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.engine.database import Database
from repro.errors import CardinalityError
from repro.optimizer.injection import PerfectInjection
from repro.optimizer.joingraph import JoinGraph
from repro.sql.binder import BoundQuery

AliasSet = FrozenSet[str]
QualifiedColumn = Tuple[str, str]


class GroupedRelation:
    """A multiset of join-column tuples, stored as tuple -> multiplicity."""

    __slots__ = ("columns", "counts")

    def __init__(self, columns: Tuple[QualifiedColumn, ...], counts: Counter) -> None:
        self.columns = columns
        self.counts = counts

    @property
    def cardinality(self) -> int:
        """Total number of underlying rows."""
        return sum(self.counts.values())

    @property
    def group_count(self) -> int:
        """Number of distinct join-column tuples retained."""
        return len(self.counts)

    def position(self, column: QualifiedColumn) -> int:
        """Position of a qualified column in the group tuples."""
        try:
            return self.columns.index(column)
        except ValueError:
            raise CardinalityError(
                f"column {column[0]}.{column[1]} is not retained in this intermediate"
            ) from None

    def project(self, keep: Tuple[QualifiedColumn, ...]) -> "GroupedRelation":
        """Re-group onto a subset of the retained columns."""
        positions = [self.position(column) for column in keep]
        counts: Counter = Counter()
        for key, count in self.counts.items():
            counts[tuple(key[p] for p in positions)] += count
        return GroupedRelation(tuple(keep), counts)


class TrueCardinalityOracle:
    """Computes true cardinalities of connected alias subsets of bound queries."""

    def __init__(self, database: Database) -> None:
        self._database = database
        self._intermediates: Dict[Tuple[str, AliasSet], GroupedRelation] = {}
        self._cardinalities: Dict[Tuple[str, AliasSet], int] = {}
        self._graphs: Dict[str, JoinGraph] = {}
        self._queries: Dict[str, BoundQuery] = {}
        self.subsets_computed = 0

    # -- public API -----------------------------------------------------------

    def true_cardinality(self, query: BoundQuery, subset) -> int:
        """True row count of joining the aliases in ``subset`` (with filters)."""
        subset = frozenset(subset)
        if not subset:
            raise CardinalityError("cannot compute the cardinality of no tables")
        unknown = subset - set(query.aliases)
        if unknown:
            raise CardinalityError(
                f"aliases {sorted(unknown)} are not part of query {query.name!r}"
            )
        key = (self._query_key(query), subset)
        if key not in self._cardinalities:
            relation = self._materialize(query, subset)
            self._cardinalities[key] = relation.cardinality
        return self._cardinalities[key]

    def perfect_injection(self, max_tables: int) -> PerfectInjection:
        """A perfect-(n) injector backed by this oracle."""
        return PerfectInjection(self.true_cardinality, max_tables)

    def clear(self, query: Optional[BoundQuery] = None) -> None:
        """Drop cached intermediates and cardinalities (one query or all)."""
        if query is None:
            self._intermediates.clear()
            self._cardinalities.clear()
            self._graphs.clear()
            self._queries.clear()
            return
        key = self._query_key(query)
        for cache in (self._intermediates, self._cardinalities):
            stale = [k for k in cache if k[0] == key]
            for k in stale:
                del cache[k]
        self._graphs.pop(key, None)
        self._queries.pop(key, None)

    def release_intermediates(self, query: Optional[BoundQuery] = None) -> None:
        """Free grouped intermediates but keep the cardinality cache."""
        if query is None:
            self._intermediates.clear()
            return
        key = self._query_key(query)
        stale = [k for k in self._intermediates if k[0] == key]
        for k in stale:
            del self._intermediates[k]

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _query_key(query: BoundQuery) -> str:
        return query.name if query.name else f"anon-{id(query)}"

    def _graph(self, query: BoundQuery) -> JoinGraph:
        key = self._query_key(query)
        graph = self._graphs.get(key)
        if graph is None or self._queries.get(key) is not query:
            graph = JoinGraph(query)
            self._graphs[key] = graph
            self._queries[key] = query
        return graph

    def _external_columns(
        self, query: BoundQuery, subset: AliasSet
    ) -> Tuple[QualifiedColumn, ...]:
        """Join columns of ``subset`` referenced by joins leaving the subset."""
        needed: List[QualifiedColumn] = []
        for join in query.joins:
            left_in = join.left_alias in subset
            right_in = join.right_alias in subset
            if left_in and not right_in:
                column = (join.left_alias, join.left_column)
            elif right_in and not left_in:
                column = (join.right_alias, join.right_column)
            else:
                continue
            if column not in needed:
                needed.append(column)
        return tuple(needed)

    def _materialize(self, query: BoundQuery, subset: AliasSet) -> GroupedRelation:
        key = (self._query_key(query), subset)
        cached = self._intermediates.get(key)
        if cached is not None:
            return cached
        self.subsets_computed += 1
        if len(subset) == 1:
            relation = self._materialize_base(query, next(iter(subset)))
        else:
            relation = self._materialize_join(query, subset)
        self._intermediates[key] = relation
        return relation

    def _materialize_base(self, query: BoundQuery, alias: str) -> GroupedRelation:
        table = query.table_for(alias)
        filters = query.filters_for(alias)
        # Scan through the database's configured engine so an --engine
        # selection covers the oracle's scans too.
        scan = self._database.executor.operators.scan_table
        result, _ = scan(self._database.catalog, alias, table, filters)
        keep = self._external_columns(query, frozenset((alias,)))
        counts: Counter = Counter()
        if keep:
            # Count group tuples column-wise: only the retained join columns
            # are materialized, never whole rows.
            counts.update(zip(*(result.column_values(a, c) for a, c in keep)))
        else:
            counts[()] = len(result)
        return GroupedRelation(keep, counts)

    def _materialize_join(self, query: BoundQuery, subset: AliasSet) -> GroupedRelation:
        graph = self._graph(query)
        mask = graph.mask(subset)
        removable = graph.pick_removable(mask)
        remainder = graph.aliases_of(mask ^ removable)
        left = self._materialize(query, remainder)
        right = self._materialize(query, graph.aliases_of(removable))
        joins = graph.joins_between(mask ^ removable, removable)
        keep = self._external_columns(query, subset)

        if not joins:
            # Disconnected subset (only probed by explicit experiments):
            # Cartesian-product semantics on grouped counts.
            counts: Counter = Counter()
            for lkey, lcount in left.counts.items():
                for rkey, rcount in right.counts.items():
                    counts[lkey + rkey] += lcount * rcount
            combined = GroupedRelation(left.columns + right.columns, counts)
            return combined.project(keep)

        left_positions: List[int] = []
        right_positions: List[int] = []
        for join in joins:
            if join.left_alias in remainder:
                left_positions.append(left.position((join.left_alias, join.left_column)))
                right_positions.append(
                    right.position((join.right_alias, join.right_column))
                )
            else:
                left_positions.append(left.position((join.right_alias, join.right_column)))
                right_positions.append(
                    right.position((join.left_alias, join.left_column))
                )

        # Positions (within the concatenated key tuple) to keep for the output.
        combined_columns = left.columns + right.columns
        keep_positions = []
        for column in keep:
            if column in left.columns:
                keep_positions.append(("l", left.columns.index(column)))
            else:
                keep_positions.append(("r", right.columns.index(column)))

        buckets: Dict[tuple, List[Tuple[tuple, int]]] = {}
        for rkey, rcount in right.counts.items():
            probe = tuple(rkey[p] for p in right_positions)
            if any(v is None for v in probe):
                continue
            buckets.setdefault(probe, []).append((rkey, rcount))

        counts = Counter()
        for lkey, lcount in left.counts.items():
            probe = tuple(lkey[p] for p in left_positions)
            if any(v is None for v in probe):
                continue
            matches = buckets.get(probe)
            if not matches:
                continue
            for rkey, rcount in matches:
                out_key = tuple(
                    lkey[index] if side == "l" else rkey[index]
                    for side, index in keep_positions
                )
                counts[out_key] += lcount * rcount
        del combined_columns  # only the projected columns are retained
        return GroupedRelation(keep, counts)
