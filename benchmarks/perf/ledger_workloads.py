"""The five named workloads of the wall-clock ledger.

Each workload generates its rows and statement list from the seed, builds a
database from them (timed — that is ``setup_s``), and opens *sessions*: an
object whose ``run_pass()`` sends every statement once through the public
API, closed loop, and returns the latencies and the rows.  What differs
between workloads is which layers that pass keeps busy (see README.md).

``--seed`` feeds every generator.  For the *timed* passes of the three JOB
workloads only the cost-neutral part follows it (a single client's
statement order); their IMDB rows, JOB text, hot-set draw and the server
clients' shuffles are pinned at :data:`PINNED_DATA_SEED`, because another
data seed is another workload — one JOB pass takes 4.2 s at data seed 42
and 2.0 s at seed 1 — and the gate compares medians across seeds.  The seed's own rows and statements
run untimed afterwards and are checked against the oracle
(:meth:`Workload.seeded_check`), so correctness is shown on other data at
every seed.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import repro
from repro import Database, EngineSettings, ReproError
from repro.catalog import ColumnDef, ColumnType, PartitionSpec, TableSchema
from repro.server import Server, ServerConfig
from repro.workloads import (
    ImdbConfig,
    JobWorkloadConfig,
    StocksConfig,
    example_query,
    generate_imdb_dataset,
    generate_job_workload,
    generate_stocks_rows,
    imdb_schemas,
    stocks_schemas,
)

from ledger import config_id, median, resolve_settings
from ledger_trace import SpanRecorder

#: Data seed of the timed JOB passes: IMDB rows, JOB text, hot-set draw,
#: server client shuffles.
PINNED_DATA_SEED = 42
#: IMDB scale of the seeded correctness check (one untimed pass + oracle).
CHECK_SCALE = 0.25
#: Statements in ``job_hot``'s working set: fits the 64-entry plan cache.
HOT_SET_SIZE = 48
#: ``server_churn``: session 0 re-ANALYZEs after every this many statements.
CHURN_EVERY = 40
#: ``--smoke`` keeps every this-many-th JOB statement (planning a JOB
#: statement costs the same at any scale, so only fewer statements are fast).
SMOKE_JOB_STRIDE = 4
SERVER_CLIENTS = 2


@dataclass
class Statement:
    name: str
    sql: str

    @property
    def ordered(self) -> bool:
        """Whether the result's row order is part of the answer."""
        return "ORDER BY" in self.sql.upper()


@dataclass
class PassResult:
    """One client pass (``server_churn``: one pass of every client)."""

    #: Wall seconds of each client's pass through its statement list.
    walls: List[float]
    #: Client-observed latency of every statement, in execution order.
    latencies: List[float]
    #: Rows of each statement, by name (``None`` when it raised or was shed).
    rows: Dict[str, Optional[list]]
    failed: int = 0
    #: ``(name, cursor.context)`` per statement (traced library sessions only).
    contexts: List[Tuple[str, object]] = field(default_factory=list)
    #: Server-side seconds per statement, and the rest of the client-observed
    #: latency: time in the admission queue (``server_churn`` only).
    service: List[float] = field(default_factory=list)
    queue_wait: List[float] = field(default_factory=list)
    #: Latency of each churn ANALYZE call (``server_churn`` only).
    churn: List[float] = field(default_factory=list)


class Workload:
    """Base: rows + statements from a seed, a timed build, sessions."""

    name = ""
    warmups = 2
    #: Fresh builds per run; ``setup_s`` is their median.
    setup_repeats = 3
    #: Tables whose storage is compressed after ANALYZE.
    compressed: Tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        if smoke:
            self.warmups = self.setup_repeats = 1
        self.tables: List[Tuple[TableSchema, list]] = []
        self.statements: List[Statement] = []

    def generate(self) -> None:
        """Fill ``tables`` and ``statements`` from the seed."""
        raise NotImplementedError

    def sizes(self) -> dict:
        """The workload's own size knobs (part of the row's config)."""
        raise NotImplementedError

    def session_kwargs(self) -> dict:
        """``connect()`` / ``ServerConfig`` keywords the sessions use."""
        return {}

    def config(self) -> dict:
        """The fully-resolved configuration a ledger row is identified by."""
        return {
            "workload": self.name,
            "seed": self.seed,
            "smoke": self.smoke,
            "sizes": self.sizes(),
            "statements_id": config_id({s.name: s.sql for s in self.statements}),
            "warmups": self.warmups,
            "setup_repeats": self.setup_repeats,
            "session": self.session_kwargs(),
            "engine_settings": resolve_settings(EngineSettings()),
        }

    def build(self, settings: Optional[EngineSettings] = None, compress: bool = True):
        """Load a fresh database; returns it with the per-step seconds."""
        db = Database(settings)
        t0 = time.perf_counter()
        for schema, rows in self.tables:
            db.create_table(schema)
            db.load_rows(schema.name, rows)
        t1 = time.perf_counter()
        db.build_indexes()
        t2 = time.perf_counter()
        db.analyze()
        t3 = time.perf_counter()
        for name in self.compressed if compress else ():
            db.catalog.table(name).compress()
        t4 = time.perf_counter()
        return db, {
            "storage.load_s": t1 - t0,
            "storage.index_build_s": t2 - t1,
            "stats.analyze_s": t3 - t2,
            "storage.compress_s": t4 - t3,
            "setup_s": t4 - t0,
        }

    def rows_loaded(self) -> int:
        return sum(len(rows) for _, rows in self.tables)

    def start(self, db: Database, recorder: Optional[SpanRecorder]):
        """Open a session on ``db`` (traced when a recorder is given)."""
        raise NotImplementedError

    def seeded_check(self) -> Optional["Workload"]:
        """The same workload over the rows ``--seed`` generates, where the
        timed rows do not already follow the seed (else ``None``)."""
        return None


# -- library sessions --------------------------------------------------------


def _connection_counters(conn: repro.Connection) -> Dict[str, float]:
    """A connection's cumulative plan-cache and simulated-time counters."""
    stats = conn.cache_stats
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "stale_evictions": stats.stale_evictions,
        "sim_exec_s": conn.metrics.execution_seconds,
    }


class _LibrarySession:
    """Single client thread over ``repro.connect()``."""

    def __init__(self, workload: Workload, db: Database, recorder) -> None:
        self.workload = workload
        self.db = db
        self.recorder = recorder

    def _connect(self) -> repro.Connection:
        interceptors = [self.recorder] if self.recorder is not None else []
        return repro.connect(
            self.db, interceptors=interceptors, **self.workload.session_kwargs()
        )

    def _run(self, calls: Sequence[Tuple[str, object]]) -> PassResult:
        """Time every ``(name, execute)`` call; ``execute()`` returns a cursor."""
        recorder = self.recorder
        result = PassResult(walls=[], latencies=[], rows={})
        begin = time.perf_counter()
        for name, execute in calls:
            if recorder is not None:
                recorder.begin_statement(name)
            start = time.perf_counter()
            try:
                cursor = execute()
                rows = cursor.fetchall()
            except ReproError:
                cursor, rows = None, None
                result.failed += 1
            result.latencies.append(time.perf_counter() - start)
            if recorder is not None:
                recorder.end_statement()
                if cursor is not None:
                    result.contexts.append((name, cursor.context))
            result.rows[name] = rows
        result.walls.append(time.perf_counter() - begin)
        return result

    def close(self) -> None:
        pass


class ColdSession(_LibrarySession):
    """A fresh default connection per pass, statements as SQL text."""

    def __init__(self, workload, db, recorder) -> None:
        super().__init__(workload, db, recorder)
        self._totals: Dict[str, float] = {}

    def counters(self) -> Dict[str, float]:
        """Counters summed over the connections of the passes so far."""
        return dict(self._totals)

    def run_pass(self) -> PassResult:
        conn = self._connect()
        order = list(self.workload.statements)
        self.workload.order_rng.shuffle(order)
        try:
            result = self._run(
                [(s.name, lambda sql=s.sql: conn.execute(sql)) for s in order]
            )
            for key, value in _connection_counters(conn).items():
                self._totals[key] = self._totals.get(key, 0) + value
        finally:
            conn.close()
        return result


class PreparedSession(_LibrarySession):
    """One connection; every statement prepared once, executed every pass."""

    def __init__(self, workload, db, recorder) -> None:
        super().__init__(workload, db, recorder)
        self.conn = self._connect()
        self.calls = [
            (s.name, self.conn.prepare(s.sql, name=s.name).execute)
            for s in workload.statements
        ]

    def counters(self) -> Dict[str, float]:
        return _connection_counters(self.conn)

    def run_pass(self) -> PassResult:
        return self._run(self.calls)

    def close(self) -> None:
        self.conn.close()


# -- IMDB / JOB ----------------------------------------------------------------


class _JobWorkload(Workload):
    """Shared: the IMDB rows and the 113 JOB statements."""

    setup_repeats = 5

    def __init__(self, seed: int, smoke: bool = False, check: bool = False) -> None:
        super().__init__(seed, smoke)
        self.check = check
        self.data_seed = seed if check else PINNED_DATA_SEED
        self.imdb = ImdbConfig(
            scale=0.1 if smoke else CHECK_SCALE if check else 1.0, seed=self.data_seed
        )

    def generate(self) -> None:
        dataset = generate_imdb_dataset(self.imdb)
        self.tables = [
            (schema, dataset.tables.get(schema.name, [])) for schema in imdb_schemas()
        ]
        queries = generate_job_workload(
            dataset.vocabulary, JobWorkloadConfig(seed=self.data_seed)
        )
        self.statements = [Statement(q.name, q.sql) for q in queries]
        if self.smoke:
            self.statements = self.statements[::SMOKE_JOB_STRIDE]
        self.order_rng = random.Random(self.seed)

    def sizes(self) -> dict:
        return {
            "imdb": dataclasses.asdict(self.imdb),
            "job": dataclasses.asdict(JobWorkloadConfig(seed=self.data_seed)),
            "statements": len(self.statements),
            "check_scale": CHECK_SCALE,
        }

    def seeded_check(self) -> Optional[Workload]:
        return None if self.check else type(self)(self.seed, self.smoke, check=True)


class JobCold(_JobWorkload):
    name = "job_cold"
    warmups = 1

    def start(self, db, recorder):
        return ColdSession(self, db, recorder)


class JobHot(_JobWorkload):
    name = "job_hot"

    def generate(self) -> None:
        super().generate()
        size = HOT_SET_SIZE // SMOKE_JOB_STRIDE if self.smoke else HOT_SET_SIZE
        hot = random.Random(self.data_seed).sample(self.statements, size)
        self.order_rng.shuffle(hot)
        self.statements = hot

    def session_kwargs(self) -> dict:
        return {"adaptive": True}

    def start(self, db, recorder):
        return PreparedSession(self, db, recorder)


# -- stocks --------------------------------------------------------------------


class StocksAgg(Workload):
    name = "stocks_agg"

    def _stocks_config(self) -> StocksConfig:
        trades = 20_000 if self.smoke else 200_000
        return StocksConfig(num_companies=4000, num_trades=trades, seed=self.seed)

    def generate(self) -> None:
        config = self._stocks_config()
        companies, trades = generate_stocks_rows(config)
        company, trade = stocks_schemas()
        self.tables = [(company, companies), (trade, trades)]
        rng = random.Random(self.seed)
        rare = f"S{rng.randrange(2000, config.num_companies):04d}"
        low = config.num_trades // 4
        self.statements = [
            Statement("skew_trap", example_query("APPL")),
            Statement("rare_symbol", example_query(rare)),
            Statement(
                "top20_symbols",
                "SELECT c.symbol AS symbol, count(*) AS trades "
                "FROM company AS c, trades AS t WHERE c.id = t.company_id "
                "GROUP BY c.symbol ORDER BY trades DESC, symbol LIMIT 20",
            ),
            Statement(
                "big_trades_by_company",
                "SELECT t.company_id AS company_id, sum(t.shares) AS shares "
                "FROM trades AS t WHERE t.shares > 9000 GROUP BY t.company_id",
            ),
            Statement("count_trades", "SELECT count(*) AS trades FROM trades AS t"),
            Statement(
                "largest_trades",
                "SELECT c.symbol AS symbol, t.shares AS shares, t.id AS id "
                "FROM company AS c, trades AS t "
                "WHERE c.id = t.company_id AND t.shares >= 9990 "
                "ORDER BY shares DESC, id LIMIT 10",
            ),
            Statement(
                "range_summary",
                "SELECT min(t.shares) AS lo, max(t.shares) AS hi, "
                "avg(t.shares) AS mean FROM trades AS t "
                f"WHERE t.id BETWEEN {low} AND {3 * low}",
            ),
        ]

    def sizes(self) -> dict:
        return {"stocks": dataclasses.asdict(self._stocks_config())}

    def start(self, db, recorder):
        return PreparedSession(self, db, recorder)


# -- wide compressed partitioned table -------------------------------------------


class WideScan(Workload):
    """The 20-column range-partitioned compressed table, one scan mechanism
    per statement (the table of ``benchmarks/test_late_materialization.py``,
    rebuilt here so that guard stays free to change)."""

    name = "wide_scan"
    compressed = ("wide",)
    SHARDS = 8
    WIDTH = 20
    NEEDLE_EVERY = 400

    def _rows(self) -> int:
        return 16_000 if self.smoke else 160_000

    def generate(self) -> None:
        rows, width = self._rows(), self.WIDTH
        step = rows // self.SHARDS
        columns = [
            ColumnDef("id", ColumnType.INT, nullable=False),
            ColumnDef("cat", ColumnType.TEXT),
        ]
        columns += [ColumnDef(f"a{i}", ColumnType.TEXT) for i in range(1, width - 1)]
        schema = TableSchema(
            name="wide",
            columns=tuple(columns),
            primary_key="id",
            partition_spec=PartitionSpec(
                method="range", column="id", bounds=tuple(range(step, rows, step))
            ),
        )
        rng = random.Random(self.seed)
        data = []
        for i in range(rows):
            if i % self.NEEDLE_EVERY == 7:
                cat = "needle"
            else:
                cat = f"common{rng.randrange(6)}"
            data.append(
                (i, cat) + tuple(f"tag{(i + j) % 7}" for j in range(1, width - 1))
            )
        self.tables = [(schema, data)]
        # Ranges are fractions of the table so --smoke prunes the same shards.

        def at(fraction: float) -> int:
            return int(rows * fraction)

        point = rng.randrange(rows)
        self.statements = [
            Statement(
                "needle_pruned",
                "SELECT t.a1 AS a1, t.a17 AS a17 FROM wide AS t "
                f"WHERE t.id BETWEEN {at(0.1875)} AND {at(0.6875) - 1} "
                "AND t.cat = 'needle'",
            ),
            Statement(
                "group_by_dictionary",
                "SELECT t.cat AS cat, count(*) AS n FROM wide AS t "
                f"WHERE t.id < {at(0.625)} GROUP BY t.cat",
            ),
            Statement(
                "star_narrow_range",
                "SELECT * FROM wide AS t "
                f"WHERE t.id BETWEEN {at(0.45)} AND {at(0.475) - 1}",
            ),
            Statement(
                "like_payload",
                "SELECT count(*) AS n FROM wide AS t "
                f"WHERE t.a5 LIKE 'tag3%' AND t.id >= {at(0.375)}",
            ),
            Statement(
                "column_to_column",
                "SELECT count(*) AS n FROM wide AS t "
                f"WHERE t.a2 < t.a3 AND t.id < {at(0.375)}",
            ),
            Statement(
                "order_limit_pruned",
                "SELECT t.id AS id, t.a3 AS a3 FROM wide AS t "
                f"WHERE t.id BETWEEN {at(0.75)} AND {at(0.875) - 1} "
                "ORDER BY a3 DESC, id LIMIT 100",
            ),
            Statement(
                "point_lookup",
                f"SELECT t.cat AS cat, t.a4 AS a4 FROM wide AS t WHERE t.id = {point}",
            ),
        ]

    def sizes(self) -> dict:
        return {"rows": self._rows(), "columns": self.WIDTH, "shards": self.SHARDS}

    def start(self, db, recorder):
        return PreparedSession(self, db, recorder)


# -- server ----------------------------------------------------------------------


class ServerChurn(_JobWorkload):
    name = "server_churn"
    warmups = 1

    def session_kwargs(self) -> dict:
        return {
            "workers": SERVER_CLIENTS,
            "queue_depth": 8,
            "admission_timeout": 10.0,
            "adaptive": True,
        }

    def sizes(self) -> dict:
        return dict(
            super().sizes(), clients=SERVER_CLIENTS, churn_every=self.churn_every
        )

    @property
    def churn_every(self) -> int:
        return CHURN_EVERY // SMOKE_JOB_STRIDE if self.smoke else CHURN_EVERY

    def start(self, db, recorder):
        return ServerSessionPair(self, db, recorder)


class ServerSessionPair:
    """Two closed-loop clients over one ``Server``; client 0 also churns.

    ``Server.session()`` accepts no interceptors, so the traced variant
    records what a client can see: one span per public call, with the
    server-side service time as its child.
    """

    def __init__(self, workload: ServerChurn, db: Database, recorder) -> None:
        self.workload = workload
        self.recorder = recorder
        self.server = Server(db, ServerConfig(**workload.session_kwargs()))
        self.sessions = [self.server.session() for _ in range(SERVER_CLIENTS)]
        # Which statements of the two clients overlap decides the peak RSS
        # (12-25% spread over ten seeds against 5% on one seed), so the
        # shuffles are part of the data seed: pinned while timed.
        self.rngs = [
            random.Random(workload.data_seed * 1000 + i) for i in range(SERVER_CLIENTS)
        ]
        self._lock = threading.Lock()

    def _client(self, index: int, out: PassResult) -> None:
        session = self.sessions[index]
        order = list(self.workload.statements)
        self.rngs[index].shuffle(order)
        latencies, service, waits, churn, rows, spans = [], [], [], [], {}, []
        failed = 0
        begin = time.perf_counter()
        for position, statement in enumerate(order, start=1):
            start = time.perf_counter()
            try:
                reply = session.execute(statement.sql)
            except ReproError:
                reply = None
                failed += 1
            end = time.perf_counter()
            latencies.append(end - start)
            if reply is not None:
                service.append(reply.latency_seconds)
                waits.append(end - start - reply.latency_seconds)
                rows[statement.name] = list(reply.rows)
            else:
                rows[statement.name] = None
            if self.recorder is not None:
                spans.append((statement.name, start, end, reply))
            if index == 0 and position % self.workload.churn_every == 0:
                start = time.perf_counter()
                session.analyze(["keyword"])
                churn.append(time.perf_counter() - start)
        wall = time.perf_counter() - begin
        with self._lock:
            out.walls.append(wall)
            out.latencies.extend(latencies)
            out.service.extend(service)
            out.queue_wait.extend(waits)
            out.churn.extend(churn)
            out.failed += failed
            # Both clients run every statement; any client's rows may be
            # checked, a failure on either one is kept.
            for name, value in rows.items():
                if value is None or name not in out.rows:
                    out.rows[name] = value
            for name, start, end, reply in spans:
                self._record(index, name, start, end, reply)

    def _record(self, client, name, start, end, reply) -> None:
        root = self.recorder.record(
            "statement", start, end, attrs={"query": name, "client": client}
        )
        if reply is not None:
            # The reply carries only the service duration; it ended when the
            # worker resolved the future, just before the client woke up.
            self.recorder.record(
                "service", end - reply.latency_seconds, end, parent=root,
                attrs={"plan_cached": reply.plan_cached},
            )

    def run_pass(self) -> PassResult:
        out = PassResult(walls=[], latencies=[], rows={})
        threads = [
            threading.Thread(target=self._client, args=(i, out))
            for i in range(SERVER_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return out

    def counters(self) -> Dict[str, float]:
        """Cumulative counters a client can read: the shared plan cache, the
        server's stats, and the sessions' public metrics (stage wall seconds
        included), summed over the sessions."""
        cache, stats = self.server.plan_cache.stats, self.server.stats
        out = {
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
            "stale_evictions": cache.stale_evictions,
            "shed": stats.shed,
            "errors": stats.errors,
            "sim_exec_s": 0.0,
            "statements": 0,
            "reoptimized": 0,
        }
        for session in self.sessions:
            metrics = session.metrics
            out["sim_exec_s"] += metrics.execution_seconds
            out["statements"] += metrics.statements
            out["reoptimized"] += metrics.reoptimized_statements
            for stage, seconds in metrics.stage_wall_seconds.items():
                out[stage] = out.get(stage, 0.0) + seconds
        return out

    def close(self) -> None:
        self.server.close()


WORKLOADS = {
    cls.name: cls for cls in (JobCold, JobHot, StocksAgg, WideScan, ServerChurn)
}


def median_timings(timings: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-step medians over several builds."""
    return {key: median([t[key] for t in timings]) for key in timings[0]}
