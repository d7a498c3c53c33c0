"""Collapsing an executed sub-join into a table the rest of the query reads.

The re-optimization loop (:mod:`repro.core.interceptor`) ends a round that
paused at a trigger join the same way under either handover: the join's rows
become a table (an ANALYZEd temporary table, or an in-memory pseudo-table
under adaptive execution), and the query is rewritten to read that table
instead of the collapsed aliases.  :class:`Handover` is the part of that
which does not depend on the kind of table — which columns the table must
expose, what the rewritten query is called, and where each column of the
*original* output lives after every collapse, so the final result can be
handed back under the original names in the original order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.catalog.catalog import Catalog
from repro.executor.batch import ColumnBatch
from repro.executor.reference import ResultSet
from repro.optimizer.plan import PlanNode
from repro.optimizer.provenance import plan_output_columns
from repro.sql.binder import BoundQuery
from repro.sql.builder import collapse_aliases, referenced_columns

QualifiedColumn = Tuple[str, str]


class Handover:
    """The collapses of one statement, from its first plan to its final result."""

    def __init__(self, plan: PlanNode, catalog: Catalog) -> None:
        self._catalog = catalog
        self._original_columns = plan_output_columns(plan, catalog)
        # Where each original output column currently lives; collapses remap
        # qualified (alias, column) names, projection outputs ("", name) are
        # stable by construction.
        self._locations: Dict[QualifiedColumn, QualifiedColumn] = {
            qcol: qcol for qcol in self._original_columns
        }

    def collapse(
        self, query: BoundQuery, aliases: Iterable[str], table: str, round_tag: str
    ) -> Tuple[BoundQuery, List[Tuple[QualifiedColumn, str]]]:
        """Rewrite ``query`` to read the sub-join over ``aliases`` from ``table``.

        Returns the rewritten query (named ``<statement>#<round_tag>``) and
        the ``((alias, column), new_name)`` pairs ``table`` must expose, in
        the order the caller should create them.
        """
        aliases = frozenset(aliases)
        mapping = {
            (alias, column): f"{alias}_{column}"
            for alias, column in self._columns(query, aliases)
        }
        for qcol, location in self._locations.items():
            if location[0] in aliases:
                self._locations[qcol] = (table, mapping[location])
        rewritten = collapse_aliases(
            query,
            sorted(aliases),
            temp_table=table,
            temp_alias=table,
            column_mapping=mapping,
        )
        statement = (query.name or "query").split("#", 1)[0]
        rewritten.name = f"{statement}#{round_tag}"
        return rewritten, list(mapping.items())

    def _columns(
        self, query: BoundQuery, aliases: Iterable[str]
    ) -> List[QualifiedColumn]:
        """Columns of the collapsed aliases the remainder of ``query`` needs."""
        if not query.select_items:
            # SELECT *: every column of every collapsed alias is part of the
            # client-visible output, so all of them ride along.  FROM-clause
            # declaration order, not sorted order: the LIMIT tie-break sorts
            # star output on the declared column sequence, so the handover
            # must preserve it across re-plans.
            return [
                (alias, column)
                for alias in query.aliases
                if alias in aliases
                for column in self._catalog.schema(
                    query.table_for(alias)
                ).column_names
            ]
        needed = referenced_columns(query, aliases)
        if not needed:
            # Nothing above references the sub-join (e.g. SELECT count(*)
            # over exactly these tables); keep one join column so the
            # rewritten query stays well-formed.
            alias = sorted(aliases)[0]
            schema = self._catalog.schema(query.table_for(alias))
            needed = [(alias, schema.column_names[0])]
        return needed

    def restore(self, result: ResultSet) -> ResultSet:
        """Project the final result back to the original output shape.

        Re-planning is invisible to the client: whatever plan produced the
        final rows, the columns come back under the original query's names in
        the original order.
        """
        if tuple(result.columns) == tuple(self._original_columns):
            return result
        positions = [
            result.column_position(*self._locations[qcol])
            for qcol in self._original_columns
        ]
        if isinstance(result, ColumnBatch):
            return result.with_columns(self._original_columns, positions)
        rows = [tuple(row[p] for p in positions) for row in result.rows]
        return ResultSet(self._original_columns, rows)
