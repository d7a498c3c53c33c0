"""The threaded serving loop: one shared database, many client sessions.

A :class:`Server` multiplexes statements from any number of
:class:`~repro.server.session.ServerSession` handles over one shared
:class:`~repro.engine.database.Database`:

* a fixed pool of worker threads executes statements, each against a
  copy-on-write snapshot pinned at statement start;
* a bounded admission queue in front of the pool sheds excess load with
  :class:`~repro.errors.AdmissionError` instead of building unbounded
  backlog;
* one process-wide thread-safe :class:`~repro.engine.plancache.PlanCache`
  is shared by every session, keyed on normalized SQL plus catalog epoch;
* :class:`ServerStats` aggregates end-to-end latency (queueing included)
  into the p50/p99 numbers the serving benchmark reports, over a fixed
  window of the most recent statements so its memory and the cost of a
  percentile stay flat in server age.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Deque, List, Optional, Sequence

from repro.engine.database import Database
from repro.engine.plancache import PlanCache
from repro.errors import AdmissionError, ServerError
from repro.server.admission import AdmissionQueue, ServerConfig
from repro.server.session import ServerSession, StatementResult
from repro.stats.percentile import nearest_rank

__all__ = ["Server", "ServerStats"]

#: Sentinel telling a worker thread to exit its loop.
_SHUTDOWN = object()

#: How many of the most recent end-to-end latencies :class:`ServerStats` keeps.
LATENCY_WINDOW = 8192


class ServerStats:
    """Thread-safe aggregate accounting of a server's lifetime."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.statements = 0
        self.rows_returned = 0
        self.errors = 0
        self.shed = 0
        self.reoptimized = 0
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)

    def record(self, result: StatementResult, latency_seconds: float) -> None:
        """Fold one successful statement (end-to-end latency) in."""
        with self._lock:
            self.statements += 1
            self.rows_returned += result.rowcount
            if result.reoptimized:
                self.reoptimized += 1
            self._latencies.append(latency_seconds)

    def record_error(self) -> None:
        """Count a statement that raised."""
        with self._lock:
            self.errors += 1

    def record_shed(self) -> None:
        """Count a statement rejected by admission control."""
        with self._lock:
            self.shed += 1

    def latencies(self) -> List[float]:
        """A copy of the window of recent end-to-end latencies.

        The window holds the last :data:`LATENCY_WINDOW` statements recorded,
        in completion order; older latencies are dropped as new ones arrive
        (``statements`` still counts every one).
        """
        with self._lock:
            return list(self._latencies)

    def percentile(self, q: float) -> float:
        """The ``q``-th latency percentile in seconds (0 when unused).

        Nearest-rank (:func:`~repro.stats.percentile.nearest_rank`), exact
        over the window :meth:`latencies` returns — the last
        :data:`LATENCY_WINDOW` statements — not over the server's lifetime.
        """
        with self._lock:
            return nearest_rank(self._latencies, q)

    @property
    def p50_seconds(self) -> float:
        """Median end-to-end statement latency."""
        return self.percentile(50.0)

    @property
    def p99_seconds(self) -> float:
        """99th-percentile end-to-end statement latency."""
        return self.percentile(99.0)


class Server:
    """A threaded serving loop over one shared :class:`Database`."""

    def __init__(
        self,
        database: Optional[Database] = None,
        config: Optional[ServerConfig] = None,
        **overrides: object,
    ) -> None:
        """Start the serving loop.

        Configuration follows the same precedence rule as ``connect()``:
        any :class:`~repro.server.admission.ServerConfig` field may be
        passed as a keyword (``Server(db, workers=8)``) and lowers onto
        ``config``; unknown keywords raise
        :class:`~repro.errors.ConfigError` naming the nearest valid field.
        """
        self.database = database if database is not None else Database()
        self.config = ServerConfig.resolve(config, **overrides)
        cache_size = self.config.plan_cache_size
        if cache_size is None:
            cache_size = self.database.settings.plan_cache_size
        #: Process-wide plan cache shared by every session (thread-safe).
        self.plan_cache = PlanCache(cache_size)
        self.stats = ServerStats()
        self._queue = AdmissionQueue(
            self.config.queue_depth, self.config.admission_timeout
        )
        self._session_ids = itertools.count(1)
        self._closed = False
        self._lock = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called."""
        return self._closed

    def close(self) -> None:
        """Drain queued statements, stop the workers and reject new work."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # FIFO order: everything admitted before close still executes, each
        # worker exits when it takes its sentinel.
        for _ in self._workers:
            self._queue.force_put(_SHUTDOWN)
        for worker in self._workers:
            worker.join()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- sessions and statements --------------------------------------------

    def session(
        self,
        *,
        reoptimize: Optional[bool] = None,
        adaptive: Optional[bool] = None,
    ) -> ServerSession:
        """Open a new client session (cheap; no thread is dedicated to it)."""
        if self._closed:
            raise ServerError("server is closed")
        return ServerSession(
            self,
            next(self._session_ids),
            reoptimize=reoptimize,
            adaptive=adaptive,
        )

    def submit(
        self,
        session: ServerSession,
        sql: str,
        params: Optional[Sequence[object]] = None,
    ) -> "Future[StatementResult]":
        """Admit one statement into the worker pool.

        Returns a future resolving to a
        :class:`~repro.server.session.StatementResult`; raises
        :class:`~repro.errors.AdmissionError` when the bounded queue sheds
        the statement.
        """
        if self._closed:
            raise ServerError("server is closed")
        future: "Future[StatementResult]" = Future()
        enqueued = time.perf_counter()
        try:
            self._queue.admit((session, sql, params, future, enqueued))
        except AdmissionError:
            self.stats.record_shed()
            raise
        return future

    def execute(
        self,
        sql: str,
        params: Optional[Sequence[object]] = None,
        timeout: Optional[float] = None,
    ) -> StatementResult:
        """One-shot convenience: serve a statement on a throwaway session."""
        return self.session().execute(sql, params, timeout=timeout)

    # -- worker side --------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            session, sql, params, future, enqueued = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                result = session._run_statement(sql, params)
            except BaseException as exc:  # noqa: BLE001 - relayed to the client
                self.stats.record_error()
                future.set_exception(exc)
            else:
                self.stats.record(result, time.perf_counter() - enqueued)
                future.set_result(result)
