"""Threaded serving layer: cache churn, catalog races, writer/reader stress."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.catalog.schema import ColumnType, make_schema
from repro.engine import Database
from repro.engine.plancache import PlanCache
from repro.errors import AdmissionError, ServerError
from repro.server import Server, ServerConfig, StatementResult

COUNT_SQL = "SELECT count(e.id) AS n, sum(e.flag) AS f FROM events AS e"
GROUPED_SQL = (
    "SELECT e.grp AS g, count(e.id) AS n FROM events AS e "
    "GROUP BY e.grp ORDER BY g"
)

#: Every load is exactly this many rows, so any reader observing a count
#: that is not a multiple of it has seen a torn batch.
BATCH = 25


def _events_db() -> Database:
    db = Database()
    db.create_table(
        make_schema(
            "events",
            [("id", ColumnType.INT), ("grp", ColumnType.INT), ("flag", ColumnType.INT)],
        )
    )
    db.load_rows("events", _batch(0))
    db.finalize_load()
    return db


def _batch(serial: int):
    base = serial * BATCH
    return [(base + i, (base + i) % 10, 1) for i in range(BATCH)]


def _run_threads(threads, errors):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == [], errors


class TestPlanCacheThreadSafety:
    def test_multithreaded_churn_keeps_invariants(self):
        cache = PlanCache(capacity=8)
        errors = []
        barrier = threading.Barrier(6)

        def churn(worker: int) -> None:
            try:
                barrier.wait()
                for i in range(400):
                    epoch = (worker + i) % 5
                    key = (f"stmt-{i % 16}", epoch)
                    if cache.get(key, epoch=epoch) is None:
                        cache.put(key, object(), epoch=epoch)
                    if i % 97 == 0:
                        cache.clear()
            except BaseException as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        _run_threads(
            [threading.Thread(target=churn, args=(w,)) for w in range(6)], errors
        )
        assert len(cache) <= 8
        stats = cache.stats
        assert stats.lookups == stats.hits + stats.misses == 6 * 400

    def test_stale_epoch_probe_never_clobbers_newer_entries(self):
        cache = PlanCache(capacity=8)
        new_plan = object()
        cache.put(("q", 5), new_plan, epoch=5)
        # A session still pinned at epoch 3 probes with its old epoch: miss,
        # but the epoch-5 entry survives.
        assert cache.get(("q", 3), epoch=3) is None
        assert cache.get(("q", 5), epoch=5) is new_plan


class TestCatalogRaces:
    def test_transient_churn_races_epoch_bumps_and_snapshots(self):
        db = _events_db()
        catalog = db.catalog
        base_tables = set(catalog.table_names())
        base_epoch = catalog.epoch
        bumps_per_thread, rounds = 50, 60
        errors = []

        def transient_churn(worker: int) -> None:
            try:
                for i in range(rounds):
                    name = f"__mid_{worker}_{i}"
                    schema = make_schema(name, [("x", ColumnType.INT)])
                    from repro.storage.table import Table

                    catalog.register_transient(schema, Table(schema))
                    catalog.drop_transient(name)
            except BaseException as exc:
                errors.append(exc)

        def epoch_churn() -> None:
            try:
                for _ in range(bumps_per_thread):
                    catalog.bump_epoch()
            except BaseException as exc:
                errors.append(exc)

        def snapshot_churn() -> None:
            try:
                for _ in range(rounds):
                    snap = catalog.snapshot()
                    # Transients never leak into a snapshot.
                    assert set(snap.table_names()) == {"events"}
                    assert snap.table("events").row_count % BATCH == 0
            except BaseException as exc:
                errors.append(exc)

        threads = (
            [threading.Thread(target=transient_churn, args=(w,)) for w in range(3)]
            + [threading.Thread(target=epoch_churn) for _ in range(2)]
            + [threading.Thread(target=snapshot_churn) for _ in range(2)]
        )
        _run_threads(threads, errors)
        assert set(catalog.table_names()) == base_tables
        assert catalog.epoch == base_epoch + 2 * bumps_per_thread


class TestServerLifecycle:
    def test_one_shot_execute_and_stats(self):
        with Server(_events_db(), ServerConfig(workers=2)) as server:
            result = server.execute(COUNT_SQL)
            assert isinstance(result, StatementResult)
            assert result.rows == ((BATCH, BATCH),)
            assert result.rowcount == 1
            # PEP 249 seven-tuples, column name first.
            assert [d[0] for d in result.description] == ["n", "f"]
            assert result.epoch == server.database.catalog.epoch
        assert server.stats.statements == 1
        assert server.stats.errors == 0
        assert server.stats.p99_seconds >= server.stats.p50_seconds >= 0

    def test_close_is_idempotent_and_rejects_new_work(self):
        server = Server(_events_db(), ServerConfig(workers=2))
        session = server.session()
        server.close()
        server.close()
        assert server.closed
        with pytest.raises(ServerError):
            server.session()
        with pytest.raises(ServerError):
            session.submit(COUNT_SQL)

    def test_closed_session_rejects_statements_and_writes(self):
        with Server(_events_db()) as server:
            with server.session() as session:
                assert session.execute(COUNT_SQL).rowcount == 1
            assert session.closed
            with pytest.raises(ServerError):
                session.submit(COUNT_SQL)
            with pytest.raises(ServerError):
                session.analyze(["events"])

    def test_statement_errors_are_relayed_not_fatal(self):
        with Server(_events_db(), ServerConfig(workers=1)) as server:
            session = server.session()
            with pytest.raises(Exception):
                session.execute("SELECT nope.x FROM nope AS nope")
            # The worker survives and keeps serving.
            assert session.execute(COUNT_SQL).rows == ((BATCH, BATCH),)
        assert server.stats.errors == 1

    def test_sessions_share_the_plan_cache(self):
        with Server(_events_db(), ServerConfig(workers=2)) as server:
            first = server.session()
            second = server.session()
            assert not first.execute(COUNT_SQL).plan_cached
            assert second.execute(COUNT_SQL).plan_cached
            # Epoch bump (ANALYZE over new rows) invalidates; the next
            # statement replans.
            first.load_rows("events", _batch(1))
            first.analyze(["events"])
            assert not second.execute(COUNT_SQL).plan_cached
            assert first.execute(COUNT_SQL).plan_cached
            assert server.plan_cache.stats.hits >= 2


class TestSharedCachedPlan:
    #: Re-optimized by the default policy: the skewed symbol is
    #: under-estimated ~50x on both trades sub-joins.
    SQL = (
        "SELECT count(t.id) AS n FROM company AS c, trades AS t, trades AS u "
        "WHERE c.symbol = 'SYM1' AND c.id = t.company_id AND c.id = u.company_id "
        "AND u.shares < 40"
    )

    def test_sessions_running_one_cached_adaptive_plan(self, stock_db):
        # Both sessions execute the same cached plan object, whose nodes
        # each round resets and annotates; a tiny switch interval makes the
        # threads interleave inside those rounds.
        expected = stock_db.run(self.SQL).rows
        results, errors = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Server(stock_db, ServerConfig(workers=2, adaptive=True)) as server:
                barrier = threading.Barrier(2)

                def client() -> None:
                    session = server.session()
                    try:
                        barrier.wait()
                        for _ in range(40):
                            results.append(session.execute(self.SQL))
                    except BaseException as exc:  # pragma: no cover - fails the test
                        errors.append(exc)

                _run_threads([threading.Thread(target=client) for _ in range(2)], errors)
                assert server.stats.errors == 0
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 80
        assert all(list(result.rows) == expected for result in results)
        assert all(result.reoptimized for result in results)
        assert sum(result.plan_cached for result in results) >= 78


class _BlockingSession:
    """Stub session whose statement parks a worker until the gate opens."""

    def __init__(self, gate: threading.Event) -> None:
        self.gate = gate

    def _run_statement(self, sql, params) -> StatementResult:
        self.gate.wait(timeout=10)
        return StatementResult(
            rows=(),
            description=(),
            epoch=0,
            plan_cached=False,
            reoptimized=False,
            latency_seconds=0.0,
            session_id=0,
        )


class TestAdmissionControl:
    def test_full_queue_sheds_with_admission_error(self):
        server = Server(
            _events_db(),
            ServerConfig(workers=1, queue_depth=1, admission_timeout=0.0),
        )
        gate = threading.Event()
        blocker = _BlockingSession(gate)
        session = server.session()
        try:
            parked = server.submit(blocker, "-- block", None)
            # Wait until the single worker has taken the blocking statement
            # off the queue, then fill the one queue slot.
            while len(server._queue) > 0:
                pass
            queued = session.submit(COUNT_SQL)
            with pytest.raises(AdmissionError):
                session.submit(COUNT_SQL)
            assert server.stats.shed == 1
        finally:
            gate.set()
            server.close()
        assert parked.result(timeout=10).rowcount == 0
        # The admitted statement still completed correctly after the shed.
        assert queued.result(timeout=10).rows == ((BATCH, BATCH),)


class TestServingStress:
    def test_writers_churn_while_readers_pin_consistent_snapshots(self):
        db = _events_db()
        config = ServerConfig(workers=4, queue_depth=64, admission_timeout=5.0)
        writer_rounds, writers, readers = 12, 2, 4
        errors = []
        done = threading.Event()

        with Server(db, config) as server:
            def writer(worker: int) -> None:
                try:
                    session = server.session()
                    for i in range(writer_rounds):
                        # Batches get globally unique serials per writer.
                        serial = 1 + worker * writer_rounds + i
                        session.load_rows("events", _batch(serial))
                        session.analyze(["events"])
                        if i % 4 == 0:
                            # DDL churn: epoch bumps from table registration.
                            session.create_table(
                                make_schema(
                                    f"scratch_{worker}_{i}",
                                    [("x", ColumnType.INT)],
                                )
                            )
                except BaseException as exc:
                    errors.append(exc)

            def reader() -> None:
                try:
                    session = server.session()
                    served = 0
                    while not done.is_set() or served == 0:
                        result = session.execute(COUNT_SQL, timeout=30)
                        ((count, flagged),) = result.rows
                        # Loads are atomic vs. snapshots: never a torn batch,
                        # and the aggregate is internally consistent.
                        assert count % BATCH == 0, count
                        assert flagged == count
                        served += 1
                except BaseException as exc:
                    errors.append(exc)

            writer_threads = [
                threading.Thread(target=writer, args=(w,)) for w in range(writers)
            ]
            reader_threads = [threading.Thread(target=reader) for _ in range(readers)]
            for thread in reader_threads + writer_threads:
                thread.start()
            for thread in writer_threads:
                thread.join()
            done.set()
            for thread in reader_threads:
                thread.join()
            assert errors == [], errors

            # Differential oracle: replay the same batches serially into a
            # fresh database and compare the final grouped result.
            serial_db = _events_db()
            for worker in range(writers):
                for i in range(writer_rounds):
                    serial_db.load_rows(
                        "events", _batch(1 + worker * writer_rounds + i)
                    )
            expected = serial_db.run(GROUPED_SQL).rows
            final = server.session().execute(GROUPED_SQL, timeout=30)
            assert list(final.rows) == expected

            total = (1 + writers * writer_rounds) * BATCH
            assert db.catalog.table("events").row_count == total
            scratch = [n for n in db.catalog.table_names() if n.startswith("scratch_")]
            assert len(scratch) == writers * len(range(0, writer_rounds, 4))
        assert server.stats.errors == 0
