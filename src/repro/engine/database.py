"""The ``Database`` facade: the public entry point of the engine substrate.

A :class:`Database` owns a catalog, an optimizer and an executor, and exposes
the operations the workloads, examples and the re-optimization driver need:

* DDL/loading: :meth:`create_table`, :meth:`load_rows`, :meth:`analyze`
* querying: :meth:`parse`, :meth:`plan`, :meth:`run`, :meth:`explain`
* re-optimization support: :meth:`create_temp_table_from_result`,
  :meth:`drop_table`
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import iadd
from typing import TYPE_CHECKING, Collection, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.catalog.catalog import Catalog
from repro.catalog.schema import ColumnDef, ColumnType, TableSchema
from repro.engine.settings import EngineSettings
from repro.errors import StorageError, TempTableExists
from repro.executor.executor import ExecutionEngine, ExecutionResult, Executor
from repro.executor.explain import explain_plan
from repro.executor.operators import ResultSet
from repro.optimizer.cost import CostModel
from repro.optimizer.feedback import FeedbackStore
from repro.optimizer.injection import CardinalityInjector
from repro.optimizer.optimizer import Optimizer, PlannedQuery
from repro.sql.binder import Binder, BoundQuery
from repro.sql.parser import parse_create_table, parse_select
from repro.stats.analyze import analyze_table
from repro.storage.index import HashIndex, build_foreign_key_indexes
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.optimizer.estimators import CardinalityStrategy

#: Rows :meth:`Database.load_rows` transposes at a time: enough to spread the
#: per-chunk calls thin, few enough that the flat chunk stays small.
LOAD_CHUNK_ROWS = 4096


@dataclass
class QueryRun:
    """A planned and executed query with its combined accounting."""

    planned: PlannedQuery
    execution: ExecutionResult

    @property
    def planning_seconds(self) -> float:
        """Simulated planning time."""
        return self.planned.stats.planning_seconds

    @property
    def execution_seconds(self) -> float:
        """Simulated execution time."""
        return self.execution.simulated_seconds

    @property
    def total_seconds(self) -> float:
        """Planning plus execution, in simulated seconds."""
        return self.planning_seconds + self.execution_seconds

    @property
    def rows(self) -> List[tuple]:
        """Rows of the final result."""
        return self.execution.result.rows


class Database:
    """An in-memory analytic database instance.

    One instance may be shared by many threads through the serving layer
    (:mod:`repro.server`): every write path (DDL, loading, ANALYZE, index
    builds) runs under the catalog lock, and readers pin a consistent
    point-in-time view with :meth:`snapshot` instead of locking.

    ``catalog`` lets :class:`~repro.engine.snapshot.SnapshotDatabase` build
    the same facade over a pinned catalog snapshot; normal construction
    leaves it ``None`` and owns a fresh catalog.
    """

    def __init__(
        self,
        settings: Optional[EngineSettings] = None,
        *,
        catalog: Optional[Catalog] = None,
        feedback: Optional[FeedbackStore] = None,
    ) -> None:
        self.settings = settings or EngineSettings()
        self.catalog = catalog if catalog is not None else Catalog()
        # One feedback store per database, shared by every connection, server
        # session and snapshot (snapshots pass their base's store in), so
        # observations harvested anywhere seed plans everywhere.
        if feedback is not None:
            self.feedback = feedback
        else:
            self.feedback = FeedbackStore(self.settings.feedback_capacity)
            if self.settings.feedback_path is not None:
                self.feedback.load(self.settings.feedback_path)
        self.optimizer = Optimizer(
            self.catalog,
            cost_params=self.settings.cost,
            planner_config=self.settings.planner,
            strategy=self._build_strategy(self.settings.estimator),
        )
        self.cost_model = CostModel(self.catalog, self.settings.cost)
        self.executor = Executor(
            self.catalog, self.cost_model, engine=self.settings.engine
        )
        self.binder = Binder(self.catalog)
        # itertools.count.__next__ is atomic in CPython, so concurrent
        # sessions never mint the same temporary-table name.
        self._temp_ids = itertools.count(1)

    def _build_strategy(self, name: str) -> "CardinalityStrategy":
        from repro.optimizer.estimators import create_strategy

        return create_strategy(name, self.catalog, feedback=self.feedback)

    @property
    def estimator_strategy(self) -> "CardinalityStrategy":
        """The active cardinality-estimation strategy."""
        return self.optimizer.strategy

    def set_estimator(self, name: str) -> "CardinalityStrategy":
        """Switch the active estimation strategy (``"stats"``, ``"feedback"``...).

        Rebuilds the strategy over this database's catalog and feedback
        store and installs it on the optimizer; subsequently planned
        statements use it.  Updates ``settings.estimator`` so snapshots and
        derived connections inherit the choice.
        """
        strategy = self._build_strategy(name)
        self.settings.estimator = name
        self.optimizer.strategy = strategy
        return strategy

    def executor_for(self, engine: ExecutionEngine) -> Executor:
        """A second executor over the same catalog using ``engine``.

        Used by the differential-testing harness to run one planned query
        through both engines.
        """
        return Executor(self.catalog, self.cost_model, engine=engine)

    # -- DDL and loading ----------------------------------------------------

    def create_table(self, schema: Union[TableSchema, str]) -> Table:
        """Create an empty table and register it in the catalog.

        Accepts either a prepared :class:`TableSchema` or ``CREATE TABLE``
        SQL text (including ``PARTITION BY HASH/RANGE`` clauses, which give
        the table one shard per partition instead of one).
        """
        if isinstance(schema, str):
            schema = parse_create_table(schema)
        table = Table(schema)
        self.catalog.register(schema, table)
        return table

    def load_rows(
        self, table_name: str, rows: Iterable[Union[Sequence, Dict[str, object]]]
    ) -> int:
        """Load rows (tuples in schema order, or dicts) into ``table_name``.

        Rows are transposed into columns and appended with a single
        :meth:`~repro.storage.table.Table.load_columns` call — the bulk-load
        path the columnar executor scans zero-copy.  The transpose takes
        :data:`LOAD_CHUNK_ROWS` rows at a time, concatenates them into one
        flat list (``list += row`` per row, no per-row iterator) and slices
        that per column; a chunk holding a dict row or a row of the wrong
        width is first put in schema order row by row, which raises for the
        first offending row.  The load is atomic: a bad value rolls the whole
        batch back.  Indexes the table already has are rebuilt over the new
        rows.
        """
        table = self.catalog.table(table_name)
        width = len(table.schema.columns)
        columns: List[List[object]] = [[] for _ in range(width)]
        count = 0
        rows = iter(rows)
        while chunk := list(itertools.islice(rows, LOAD_CHUNK_ROWS)):
            if not set(map(type, chunk)) <= {tuple, list} or set(map(len, chunk)) != {width}:
                chunk = [_schema_row(table, row, width) for row in chunk]
            flat = reduce(iadd, chunk, [])
            for position, values in enumerate(columns):
                values += flat[position::width]
            count += len(chunk)
        if count:
            # Under the catalog lock so a concurrent snapshot() pins either
            # none or all of the batch, never a torn prefix, and never the
            # new rows beside indexes that miss them.
            with self.catalog.lock:
                table.load_columns(columns)
                self._rebuild_indexes(table_name)
                self.feedback.invalidate_table(table_name)
        return count

    def _rebuild_indexes(self, table_name: str) -> None:
        """Replace every index of ``table_name`` with one built afresh.

        Rebuilt, not extended: a load shifts the global row ids of a sharded
        table's later shards.  New objects, so a pinned snapshot keeps the
        indexes that match its rows.  Cached plans stay valid (the same
        access paths exist), so the epoch does not move.
        """
        indexes = self.catalog.indexes(table_name)
        table = self.catalog.table(table_name)
        for column, index in list(indexes.items()):
            indexes[column] = type(index)(table, column)

    def build_indexes(self, table_name: Optional[str] = None) -> None:
        """Build primary/foreign-key hash indexes (all tables by default)."""
        with self.catalog.lock:
            names = [table_name] if table_name else self.catalog.table_names()
            for name in names:
                table = self.catalog.table(name)
                for index in build_foreign_key_indexes(table):
                    self.catalog.add_index(name, index)

    def create_index(self, table_name: str, column: str) -> None:
        """Build an additional hash index on ``table_name.column``."""
        with self.catalog.lock:
            table = self.catalog.table(table_name)
            self.catalog.add_index(table_name, HashIndex(table, column))

    def analyze(self, tables: Optional[Iterable[str]] = None) -> None:
        """Run ANALYZE over ``tables`` (default: all tables).

        Partitioned tables additionally refresh their per-shard zone maps,
        re-deriving min/max/null-count exactly from storage.
        """
        with self.catalog.lock:
            names = (
                list(tables) if tables is not None else self.catalog.table_names()
            )
            for name in names:
                entry = self.catalog.entry(name)
                entry.table.refresh_zone_maps()
                self.catalog.set_stats(
                    name,
                    analyze_table(
                        entry.table,
                        self.settings.statistics_target,
                        sample_target=self.settings.sample_rows,
                    ),
                )
                self.feedback.invalidate_table(name)

    def finalize_load(self) -> None:
        """Convenience: build configured indexes and ANALYZE everything."""
        if self.settings.auto_foreign_key_indexes:
            self.build_indexes()
        self.analyze()

    def drop_table(self, name: str) -> None:
        """Drop a table (used to clean up temporary tables)."""
        self.catalog.drop(name)
        self.feedback.invalidate_table(name)

    # -- querying -------------------------------------------------------------

    def parse(self, sql: str, name: Optional[str] = None) -> BoundQuery:
        """Parse and bind a SQL SELECT statement."""
        return self.binder.bind(parse_select(sql, name=name))

    def _as_bound(self, query: Union[str, BoundQuery]) -> BoundQuery:
        if isinstance(query, str):
            return self.parse(query)
        return query

    def plan(
        self,
        query: Union[str, BoundQuery],
        injector: Optional[CardinalityInjector] = None,
    ) -> PlannedQuery:
        """Optimize a query (SQL text or bound query)."""
        return self.optimizer.plan(self._as_bound(query), injector=injector)

    def execute_plan(self, planned: PlannedQuery) -> ExecutionResult:
        """Execute a previously planned query."""
        return self.executor.execute(planned.plan)

    def run(
        self,
        query: Union[str, BoundQuery],
        injector: Optional[CardinalityInjector] = None,
    ) -> QueryRun:
        """Plan and execute a query in one call."""
        planned = self.plan(query, injector=injector)
        execution = self.execute_plan(planned)
        return QueryRun(planned=planned, execution=execution)

    def explain(
        self,
        query: Union[str, BoundQuery],
        injector: Optional[CardinalityInjector] = None,
        analyze: bool = False,
    ) -> str:
        """Return the EXPLAIN (or EXPLAIN ANALYZE) text of a query."""
        planned = self.plan(query, injector=injector)
        execution = self.execute_plan(planned) if analyze else None
        return explain_plan(planned.plan, execution)

    # -- temporary tables (re-optimization support) ------------------------------

    def next_temp_table_name(self, base: str = "temp") -> str:
        """Generate a fresh temporary table name (thread-safe)."""
        return f"__{base}{next(self._temp_ids)}"

    def create_temp_table_from_result(
        self,
        name: str,
        result: ResultSet,
        columns: Sequence[Tuple[Tuple[str, str], str]],
        alias_tables: Optional[Dict[str, str]] = None,
        analyze: Optional[bool] = None,
        transient: bool = False,
        analyze_only: Optional[Collection[str]] = None,
    ) -> Table:
        """Materialize selected columns of a result set into a new table.

        Args:
            name: catalog name of the temporary table.
            result: the result set to materialize.
            columns: sequence of ``((source_alias, source_column), new_name)``
                describing which result columns to keep and what to call them.
            alias_tables: optional mapping from result alias to the catalog
                table it came from; used to carry column types over exactly.
            analyze: whether to ANALYZE the new table (defaults to the
                engine-wide ``analyze_temp_tables`` setting).
            transient: register the table (and attach its statistics) without
                bumping the catalog epoch, like an adaptive intermediate.
                For tables only the creating statement can name and that it
                drops with :meth:`drop_intermediate` before it returns, so
                plans cached for other statements stay valid.
            analyze_only: new-table column names ANALYZE is limited to
                (``None``: all) — the ones the creating statement's remainder
                can ask statistics about.

        Returns:
            The storage object of the created table.
        """
        if name in self.catalog:
            raise TempTableExists(f"temporary table {name!r} already exists")
        schema, column_data = self._result_columns(name, result, columns, alias_tables)
        table = Table(schema)
        with self.catalog.lock:
            if transient:
                entry = self.catalog.register_transient(schema, table)
            else:
                entry = self.catalog.register(schema, table)
            table.load_columns(column_data)
            do_analyze = (
                self.settings.analyze_temp_tables if analyze is None else analyze
            )
            if do_analyze:
                stats = analyze_table(
                    table,
                    self.settings.statistics_target,
                    sample_target=self.settings.sample_rows,
                    only=analyze_only,
                )
                if transient:
                    entry.stats = stats
                else:
                    self.catalog.set_stats(name, stats)
            if not transient:
                self.feedback.invalidate_table(name)
        return table

    def _result_columns(
        self,
        name: str,
        result: ResultSet,
        columns: Sequence[Tuple[Tuple[str, str], str]],
        alias_tables: Optional[Dict[str, str]],
    ) -> Tuple[TableSchema, List[List[object]]]:
        """Schema and column value lists of a table holding ``columns`` of ``result``."""
        column_defs = []
        column_data = []
        for (source_alias, source_column), new_name in columns:
            values = result.column_values(source_alias, source_column)
            col_type = None
            if alias_tables and source_alias in alias_tables:
                source_schema = self.catalog.schema(alias_tables[source_alias])
                if source_schema.has_column(source_column):
                    col_type = source_schema.column(source_column).col_type
            if col_type is None:
                col_type = _infer_type(values)
            column_defs.append(ColumnDef(new_name, col_type))
            column_data.append(values)
        return TableSchema(name=name, columns=tuple(column_defs)), column_data

    # -- in-memory intermediates (adaptive execution support) ---------------------

    def register_intermediate_result(
        self,
        name: str,
        result: ResultSet,
        columns: Sequence[Tuple[Tuple[str, str], str]],
        alias_tables: Optional[Dict[str, str]] = None,
    ) -> Table:
        """Register an in-memory result as a transient one-shard table.

        This is the adaptive executor's handover path: unlike
        :meth:`create_temp_table_from_result` it issues no DDL — the result's
        column value lists back the table directly (:meth:`Table.adopt`), the catalog epoch
        is *not* bumped (cached plans for other statements stay valid), and
        no statistics are gathered (the caller injects the exact cardinality
        when re-planning).  The caller must drop the table with
        :meth:`drop_intermediate` before the statement returns.
        """
        schema, column_data = self._result_columns(name, result, columns, alias_tables)
        table = Table.adopt(schema, column_data)
        self.catalog.register_transient(schema, table)
        return table

    def drop_intermediate(self, name: str) -> None:
        """Drop a transient table (no epoch bump)."""
        self.catalog.drop_transient(name)

    # -- snapshots (serving support) ----------------------------------------------

    def snapshot(self) -> "Database":
        """Pin a read-only point-in-time view of this database.

        Returns a :class:`~repro.engine.snapshot.SnapshotDatabase`: the same
        facade over a :meth:`~repro.catalog.catalog.Catalog.snapshot` of the
        catalog, so a statement executing against it never blocks — and is
        never torn by — concurrent ANALYZE, loads or DDL on this instance.
        """
        from repro.engine.snapshot import SnapshotDatabase

        return SnapshotDatabase(self)


def _schema_row(
    table: Table, row: Union[Sequence, Dict[str, object]], width: int
) -> Sequence:
    """One ``load_rows`` row as a sequence in schema order."""
    if isinstance(row, dict):
        return table.row_values_from_dict(row)
    if len(row) != width:
        raise StorageError(
            f"table {table.name!r} expects {width} values, got {len(row)}"
        )
    return row


def _infer_type(values: Iterable[object]) -> ColumnType:
    """Infer a column type from sample values (fallback for derived columns)."""
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            return ColumnType.INT
        if isinstance(value, int):
            return ColumnType.INT
        if isinstance(value, float):
            return ColumnType.FLOAT
        return ColumnType.TEXT
    return ColumnType.INT
