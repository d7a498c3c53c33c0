"""Per-client sessions of the threaded serving loop.

A :class:`ServerSession` is one client's view of the shared database.  Each
statement it serves:

1. pins a :class:`~repro.engine.snapshot.SnapshotDatabase` (copy-on-write
   table views at the current catalog epoch) — readers never block, and are
   never torn by, concurrent ANALYZE/DDL/loads;
2. runs the ordinary interceptor pipeline over that snapshot — per-session
   metrics, the **process-wide shared plan cache** (keyed on normalized SQL
   plus the pinned epoch, so sessions at the same epoch share plans; a
   statement text served before skips parse and bind too), and the
   re-optimization loop innermost;
3. returns an immutable :class:`StatementResult` carrying the rows, PEP 249
   description, the pinned epoch and latency accounting.

Sessions follow the DB-API ``threadsafety=1`` model: one session serves one
client, one statement at a time (drive several futures concurrently from
several sessions, not one).  Writes (:meth:`ServerSession.analyze`,
:meth:`create_table`, :meth:`load_rows`, :meth:`create_index`) go straight
to the shared database under the catalog lock and become visible to
statements pinned afterwards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from repro.engine.connection import ColumnDescription, _describe
from repro.engine.pipeline import (
    ConnectionMetrics,
    FeedbackHarvestInterceptor,
    MetricsInterceptor,
    PlanCacheInterceptor,
    QueryContext,
    QueryInterceptor,
    QueryPipeline,
)
from repro.errors import ServerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future
    from repro.server.server import Server

__all__ = ["ServerSession", "StatementResult"]


@dataclass(frozen=True)
class StatementResult:
    """The finished, immutable outcome of one served statement."""

    rows: Tuple[tuple, ...]
    description: Tuple[ColumnDescription, ...]
    #: Catalog epoch the statement's snapshot was pinned at.
    epoch: int
    plan_cached: bool
    reoptimized: bool
    #: Wall-clock seconds from snapshot pin to finished execution (does not
    #: include queueing delay; the server's stats track end-to-end latency).
    latency_seconds: float
    session_id: int
    metadata: Dict[str, float] = field(default_factory=dict)

    @property
    def rowcount(self) -> int:
        """Number of result rows."""
        return len(self.rows)


class ServerSession:
    """One client's serving context over a shared :class:`Server`."""

    def __init__(
        self,
        server: "Server",
        session_id: int,
        *,
        reoptimize: Optional[bool] = None,
        adaptive: Optional[bool] = None,
    ) -> None:
        # Local import: repro.core builds on the engine package, so a
        # module-level import would be circular (same as Connection).
        from repro.core.interceptor import ReoptimizationInterceptor
        from repro.core.triggers import ReoptimizationPolicy

        self.server = server
        self.session_id = session_id
        self.metrics = ConnectionMetrics()
        self._closed = False
        config = server.config
        if reoptimize is None:
            reoptimize = config.reoptimize
        if adaptive is None:
            adaptive = config.adaptive
        chain: List[QueryInterceptor] = [MetricsInterceptor(self.metrics)]
        if server.plan_cache.enabled:
            chain.append(PlanCacheInterceptor(server.plan_cache))
        # Outside the re-optimization loop; every session's snapshot shares
        # the base database's feedback store, so one session's observations
        # seed every other session's plans.
        chain.append(FeedbackHarvestInterceptor())
        if reoptimize:
            chain.append(
                ReoptimizationInterceptor(ReoptimizationPolicy(), adaptive=adaptive)
            )
        self._chain = chain

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called."""
        return self._closed

    def close(self) -> None:
        """Close the session; further statements raise ServerError."""
        self._closed = True

    def __enter__(self) -> "ServerSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ServerError(f"session {self.session_id} is closed")

    # -- statements ---------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Optional[Sequence[object]] = None,
        timeout: Optional[float] = None,
    ) -> StatementResult:
        """Serve one statement through the worker pool and wait for it."""
        return self.submit(sql, params).result(timeout=timeout)

    def submit(
        self, sql: str, params: Optional[Sequence[object]] = None
    ) -> "Future[StatementResult]":
        """Enqueue one statement; sheds with AdmissionError when saturated."""
        self._check_open()
        return self.server.submit(self, sql, params)

    def _run_statement(
        self, sql: str, params: Optional[Sequence[object]]
    ) -> StatementResult:
        """Pin a snapshot and run the statement (worker-thread entry)."""
        start = time.perf_counter()
        snapshot = self.server.database.snapshot()
        pipeline = QueryPipeline(snapshot, self._chain)
        ctx: QueryContext = pipeline.run(sql=sql, params=params)
        latency = time.perf_counter() - start
        return StatementResult(
            rows=tuple(ctx.rows),
            description=tuple(_describe(ctx)),
            epoch=snapshot.catalog.epoch,
            plan_cached=ctx.plan_cached,
            reoptimized=ctx.reoptimized,
            latency_seconds=latency,
            session_id=self.session_id,
        )

    # -- writes (shared database, may bump the epoch) -----------------------

    def analyze(self, tables: Optional[Sequence[str]] = None) -> None:
        """ANALYZE on the shared database; pins after this see new stats.

        Only statistics or zone maps that come out different bump the epoch
        and so drop the shared cache's plans; an ANALYZE over unchanged data
        keeps them.
        """
        self._check_open()
        self.server.database.analyze(tables)

    def create_table(self, schema: Union[str, object]):
        """DDL on the shared database."""
        self._check_open()
        return self.server.database.create_table(schema)

    def load_rows(self, table_name: str, rows: Iterable) -> int:
        """Bulk load into the shared database (atomic vs. snapshots)."""
        self._check_open()
        return self.server.database.load_rows(table_name, rows)

    def create_index(self, table_name: str, column: str) -> None:
        """Index build on the shared database."""
        self._check_open()
        self.server.database.create_index(table_name, column)
