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
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.catalog.catalog import Catalog
from repro.catalog.schema import ColumnDef, ColumnType, TableSchema
from repro.engine.settings import EngineSettings
from repro.errors import StorageError, TempTableExists
from repro.executor.executor import ExecutionEngine, ExecutionResult, Executor
from repro.executor.explain import explain_plan
from repro.executor.operators import ResultSet
from repro.optimizer.cost import CostModel
from repro.optimizer.estimators import create_source
from repro.optimizer.feedback import FeedbackStore
from repro.optimizer.injection import CardinalityInjector
from repro.optimizer.optimizer import Optimizer, PlannedQuery
from repro.sql.binder import Binder, BoundQuery
from repro.sql.parser import parse_create_table, parse_select
from repro.stats.analyze import analyze_table
from repro.storage.index import HashIndex, build_foreign_key_indexes
from repro.storage.table import Table

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
        settings = settings or EngineSettings()
        self.catalog = catalog if catalog is not None else Catalog()
        # One feedback store per database, shared by every connection, server
        # session and snapshot (snapshots pass their base's store in), so
        # observations harvested anywhere seed plans everywhere.
        if feedback is not None:
            self.feedback = feedback
        else:
            self.feedback = FeedbackStore(settings.feedback_capacity)
            if settings.feedback_path is not None:
                self.feedback.load(settings.feedback_path)
        self.apply_settings(settings)
        self.binder = Binder(self.catalog)
        # itertools.count.__next__ is atomic in CPython, so concurrent
        # sessions never mint the same temporary-table name.
        self._temp_ids = itertools.count(1)

    def apply_settings(self, settings: EngineSettings) -> None:
        """Install ``settings`` and rebuild everything derived from them.

        The cost model (one, shared by the optimizer and the executor), the
        optimizer (planner limits, estimator source) and the executor follow
        ``settings``; the catalog, its data and the feedback store stay.
        Statements planned from now on use the new settings.
        """
        self.settings = settings
        # One cost model: what the planner estimates with is what the
        # executor charges.
        self.cost_model = CostModel(self.catalog, settings.cost)
        self.optimizer = Optimizer(
            self.catalog,
            cost_model=self.cost_model,
            planner_config=settings.planner,
            source=create_source(settings.estimator, self.catalog, self.feedback),
        )
        self.executor = Executor(self.catalog, self.cost_model, engine=settings.engine)

    def set_estimator(self, name: str) -> None:
        """Switch the cardinality estimator (``"stats"``, ``"feedback"``...).

        Installs a validated copy of the settings with ``estimator=name``
        (an unknown name is a :class:`~repro.errors.ConfigError`); a settings
        object shared with other databases is left untouched.  Snapshots
        and derived connections inherit the choice.
        """
        self.apply_settings(self.settings.replace(estimator=name))

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

        Each shard's columns are counted once, one column at a time;
        partitioned tables refresh their per-shard zone maps
        (min/max/null-count, exact) from the zones ANALYZE records off those
        counts.  The catalog
        epoch moves only when a table's statistics or one of its zone maps
        (which plan-time pruning and the scan upper bound read) come out
        different, so an ANALYZE over unchanged data keeps every cached
        plan.  The table's feedback observations are dropped either way.
        """
        with self.catalog.lock:
            names = (
                list(tables) if tables is not None else self.catalog.table_names()
            )
            for name in names:
                table = self.catalog.table(name)
                zones = [{} for _ in table.partitions()]
                stats = analyze_table(
                    table,
                    self.settings.statistics_target,
                    sample_target=self.settings.sample_rows,
                    zones=zones,
                )
                zones_changed = table.refresh_zone_maps(zones)
                stats_changed = self.catalog.set_stats(name, stats)
                if zones_changed and not stats_changed:
                    self.catalog.bump_epoch()
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
        analyze: bool = True,
        transient: bool = False,
        analyze_only: Optional[Collection[str]] = None,
    ) -> Table:
        """Hand selected columns of a result set over to a new table.

        Args:
            name: catalog name of the temporary table.
            result: the result set to hand over.
            columns: sequence of ``((source_alias, source_column), new_name)``
                describing which result columns to keep and what to call them.
            alias_tables: optional mapping from result alias to the catalog
                table it came from; used to carry column types over exactly.
            analyze: whether to ANALYZE the new table.
            transient: a re-optimization handover, not DDL.  The table adopts
                the result's column lists (:meth:`Table.adopt`: executor
                output already has the declared types, so nothing is copied
                or checked) and is registered without bumping the catalog
                epoch.  Only the creating statement can name it, and it
                drops it with :meth:`drop_intermediate` before it returns, so
                plans cached for other statements stay valid.  A table that
                is not transient outlives the statement: its columns are
                copied and checked like any load.
            analyze_only: new-table column names ANALYZE is limited to
                (``None``: all) — the ones the creating statement's remainder
                can ask statistics about.

        Returns:
            The storage object of the created table.
        """
        if name in self.catalog:
            raise TempTableExists(f"temporary table {name!r} already exists")
        schema, column_data = self._result_columns(name, result, columns, alias_tables)
        with self.catalog.lock:
            if transient:
                table = Table.adopt(schema, column_data)
                entry = self.catalog.register_transient(schema, table)
            else:
                table = Table(schema)
                entry = self.catalog.register(schema, table)
                table.load_columns(column_data)
            if analyze:
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
