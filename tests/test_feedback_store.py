"""Unit tests for the persistent cardinality-feedback store and its keys."""

import json
import threading
from collections import OrderedDict
from itertools import combinations

from repro.engine import connect
from repro.optimizer.feedback import (
    FeedbackStore,
    SubsetKeys,
    _rename_aliases,
    subset_key,
    subset_tables,
)
from repro.sql.params import bind_parameters

SKEWED_SQL = (
    "SELECT count(t.id) AS n FROM company AS c, trades AS t "
    "WHERE c.symbol = 'SYM1' AND c.id = t.company_id"
)


class TestSubsetKey:
    def test_key_uses_tables_not_alias_spellings(self, stock_db):
        """Two spellings of the same query normalize to the same keys."""
        a = stock_db.parse(SKEWED_SQL, name="a")
        b = stock_db.parse(
            "SELECT count(tr.id) AS n FROM company AS co, trades AS tr "
            "WHERE co.symbol = 'SYM1' AND co.id = tr.company_id",
            name="b",
        )
        assert subset_key(a, frozenset(["c"])) == subset_key(b, frozenset(["co"]))
        assert subset_key(a, frozenset(["c", "t"])) == subset_key(
            b, frozenset(["co", "tr"])
        )

    def test_same_alias_different_tables_do_not_collide(self, stock_db):
        """The alias-subset keys of raw provenance collide; normalized keys don't."""
        company = stock_db.parse(
            "SELECT count(x.id) AS n FROM company AS x", name="company"
        )
        trades = stock_db.parse(
            "SELECT count(x.id) AS n FROM trades AS x", name="trades"
        )
        assert subset_key(company, frozenset(["x"])) != subset_key(
            trades, frozenset(["x"])
        )

    def test_different_filters_produce_different_keys(self, stock_db):
        sym1 = stock_db.parse(SKEWED_SQL, name="sym1")
        sym2 = stock_db.parse(SKEWED_SQL.replace("SYM1", "SYM2"), name="sym2")
        assert subset_key(sym1, frozenset(["c"])) != subset_key(
            sym2, frozenset(["c"])
        )

    def test_parameterized_statement_round_trips_to_same_key(self, stock_db):
        """Regression (satellite): ``?``-bound and literal statements must
        normalize to identical keys, or a prepared workload never hits the
        feedback learned from literal statements (and vice versa)."""
        literal = stock_db.parse(SKEWED_SQL, name="literal")
        template = stock_db.parse(SKEWED_SQL.replace("'SYM1'", "?"), name="template")
        assert template.param_count == 1
        bound = bind_parameters(template, ("SYM1",))
        for subset in (frozenset(["c"]), frozenset(["t"]), frozenset(["c", "t"])):
            assert subset_key(literal, subset) == subset_key(bound, subset), subset

    def test_subset_tables(self, stock_db):
        query = stock_db.parse(SKEWED_SQL, name="tables")
        assert subset_tables(query, ["c", "t"]) == frozenset(["company", "trades"])


def _frozen_subset_key(query, subset):
    """``subset_key`` as persisted stores (format v1) were keyed before each
    alias's signature and rendered filters were memoized per query."""

    def signature(alias):
        filters = sorted(f.to_sql() for f in query.filters_for(alias))
        return query.table_for(alias), tuple(filters)

    ordered = sorted(subset, key=lambda a: (signature(a), a))
    mapping = {alias: f"r{i}" for i, alias in enumerate(ordered)}
    parts = []
    for alias in ordered:
        table = query.table_for(alias)
        filters = sorted(
            _rename_aliases(f, mapping).to_sql() for f in query.filters_for(alias)
        )
        parts.append(f"{mapping[alias]}={table}[{' AND '.join(filters)}]")
    edges = sorted(
        "{}.{}={}.{}".format(
            *min(
                (
                    (mapping[j.left_alias], j.left_column, mapping[j.right_alias], j.right_column),
                    (mapping[j.right_alias], j.right_column, mapping[j.left_alias], j.left_column),
                )
            )
        )
        for j in query.joins
        if j.left_alias in subset and j.right_alias in subset
    )
    residuals = sorted(
        _rename_aliases(r, mapping).to_sql()
        for r in query.residuals
        if set(r.referenced_aliases()) <= subset
    )
    return "&".join(parts) + "|" + ",".join(edges) + "|" + ",".join(residuals)


def _all_subsets(query):
    return [
        frozenset(combo)
        for size in range(1, len(query.aliases) + 1)
        for combo in combinations(query.aliases, size)
    ]


class TestSubsetKeysMatchFrozenFormat:
    def test_every_harvested_job_subset(self, imdb_db, job_queries, monkeypatch, tmp_path):
        harvested = {}  # id(bound query) -> (query, [(subset, rows), ...])
        record = FeedbackStore.record

        def spy(store, query, subset, rows):
            harvested.setdefault(id(query), (query, []))[1].append((subset, rows))
            return record(store, query, subset, rows)

        monkeypatch.setattr(FeedbackStore, "record", spy)
        conn = connect(imdb_db)
        try:
            for job in job_queries:
                conn.execute(job.sql)
        finally:
            conn.close()
        monkeypatch.undo()
        assert len(harvested) == len(job_queries)
        assert sum(len(observed) for _, observed in harvested.values()) > 900
        for query, observed in harvested.values():
            store = FeedbackStore(capacity=len(observed))
            for subset, rows in observed:
                store.record(query, subset, rows)
            path = tmp_path / "store.json"
            store.save(str(path))
            persisted = [entry["key"] for entry in json.loads(path.read_text())["entries"]]
            expected = OrderedDict()  # a repeated key moves to the LRU end
            for subset, _ in observed:
                key = _frozen_subset_key(query, subset)
                expected[key] = None
                expected.move_to_end(key)
            assert persisted == list(expected)

    def test_self_join_ties_and_residuals(self, stock_db):
        query = stock_db.parse(
            "SELECT count(t.id) AS n FROM company AS b, trades AS t, company AS a, "
            "trades AS u WHERE a.id = t.company_id AND b.id = t.company_id "
            "AND u.company_id = a.id AND a.symbol = 'SYM1' AND b.symbol = 'SYM1' "
            "AND t.shares > 10 AND u.shares > 10 AND a.id < b.id "
            "AND a.id + b.id < t.shares",
            name="ties",
        )
        assert len(query.residuals) == 2
        keys = SubsetKeys(query)  # one instance: its memo serves every subset
        for subset in _all_subsets(query):
            expected = _frozen_subset_key(query, subset)
            assert keys.key(subset) == expected, sorted(subset)
            assert subset_key(query, subset) == expected

    def test_filters_rendered_per_key_when_text_holds_the_slot(self, stock_db):
        """A filter text already holding the slot character is renamed per
        key like before."""
        query = stock_db.parse(
            "SELECT * FROM company AS a, company AS b, company AS c "
            "WHERE a.id = b.id AND b.id = c.id AND b.symbol = '\x00.' AND c.symbol = 'x'",
            name="odd",
        )
        assert "\x00" in query.filters_for("b")[0].to_sql()
        keys = SubsetKeys(query)
        for subset in _all_subsets(query):
            assert keys.key(subset) == _frozen_subset_key(query, subset), sorted(subset)


class TestFeedbackStoreLifecycle:
    def test_record_lookup_and_lru_bound(self, stock_db):
        store = FeedbackStore(capacity=2)
        q = stock_db.parse(SKEWED_SQL, name="lru")
        c, t, ct = frozenset(["c"]), frozenset(["t"]), frozenset(["c", "t"])
        store.record(q, c, 10.0)
        store.record(q, t, 20.0)
        assert store.lookup(q, c) == 10.0  # refreshes recency
        store.record(q, ct, 30.0)  # evicts the LRU entry (t)
        assert len(store) == 2
        assert store.lookup(q, t) is None
        assert store.lookup(q, c) == 10.0
        assert store.lookup(q, ct) == 30.0
        assert store.stats.inserts == 3
        assert store.stats.misses == 1

    def test_invalidation_by_table(self, stock_db):
        store = FeedbackStore()
        q = stock_db.parse(SKEWED_SQL, name="invalidate")
        store.record(q, frozenset(["c"]), 5.0)
        store.record(q, frozenset(["t"]), 7.0)
        store.record(q, frozenset(["c", "t"]), 9.0)
        store.invalidate_table("company")
        # Entries touching company are stale; the trades-only entry survives.
        assert store.lookup(q, frozenset(["c"])) is None
        assert store.lookup(q, frozenset(["c", "t"])) is None
        assert store.lookup(q, frozenset(["t"])) == 7.0
        assert store.stats.invalidations == 2

    def test_database_writes_invalidate(self, stock_db):
        q = stock_db.parse(SKEWED_SQL, name="write")
        stock_db.feedback.record(q, frozenset(["t"]), 11.0)
        stock_db.load_rows("trades", [(99999, 1, 10, "NYSE")])
        assert stock_db.feedback.lookup(q, frozenset(["t"])) is None

    def test_analyze_invalidates(self, stock_db):
        q = stock_db.parse(SKEWED_SQL, name="analyze")
        stock_db.feedback.record(q, frozenset(["c"]), 3.0)
        stock_db.analyze(["company"])
        assert stock_db.feedback.lookup(q, frozenset(["c"])) is None


class TestFeedbackPersistence:
    def test_save_load_round_trip(self, stock_db, tmp_path):
        path = str(tmp_path / "feedback.json")
        store = FeedbackStore()
        q = stock_db.parse(SKEWED_SQL, name="persist")
        store.record(q, frozenset(["c"]), 42.0)
        store.record(q, frozenset(["c", "t"]), 77.0)
        store.invalidate_table("orders")  # versions persist too
        store.save(path)

        fresh = FeedbackStore()
        assert fresh.load(path) is True
        assert len(fresh) == 2
        assert fresh.lookup(q, frozenset(["c"])) == 42.0
        assert fresh.lookup(q, frozenset(["c", "t"])) == 77.0

    def test_load_respects_capacity(self, stock_db, tmp_path):
        path = str(tmp_path / "feedback.json")
        store = FeedbackStore()
        q = stock_db.parse(SKEWED_SQL, name="cap")
        store.record(q, frozenset(["c"]), 1.0)
        store.record(q, frozenset(["t"]), 2.0)
        store.record(q, frozenset(["c", "t"]), 3.0)
        store.save(path)
        small = FeedbackStore(capacity=1)
        assert small.load(path) is True
        assert len(small) == 1

    def test_corrupt_and_missing_files_fall_back_gracefully(self, tmp_path):
        store = FeedbackStore()
        assert store.load(str(tmp_path / "missing.json")) is False

        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert store.load(str(garbage)) is False

        wrong_version = tmp_path / "wrong.json"
        wrong_version.write_text(json.dumps({"version": 999, "entries": []}))
        assert store.load(str(wrong_version)) is False

        missing_fields = tmp_path / "fields.json"
        missing_fields.write_text(json.dumps({"version": 1, "entries": [{}]}))
        assert store.load(str(missing_fields)) is False
        assert len(store) == 0  # untouched by every failed load

    def test_settings_feedback_path_warms_store(self, stock_db, tmp_path):
        from repro.engine import Database, EngineSettings

        path = str(tmp_path / "warm.json")
        q = stock_db.parse(SKEWED_SQL, name="warm")
        stock_db.feedback.record(q, frozenset(["c", "t"]), 123.0)
        stock_db.feedback.save(path)
        warmed = Database(EngineSettings(feedback_path=path))
        assert len(warmed.feedback) == 1


class TestFeedbackThreadSafety:
    def test_concurrent_records_lookups_and_invalidations(self, stock_db):
        """Epoch bumps racing with record/lookup never corrupt the store."""
        store = stock_db.feedback
        q = stock_db.parse(SKEWED_SQL, name="race")
        subsets = [frozenset(["c"]), frozenset(["t"]), frozenset(["c", "t"])]
        errors = []
        barrier = threading.Barrier(6)

        def worker(seed: int) -> None:
            try:
                barrier.wait()
                for i in range(200):
                    subset = subsets[(seed + i) % len(subsets)]
                    store.record(q, subset, float(i + 1))
                    value = store.lookup(q, subset)
                    assert value is None or value >= 1.0
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def invalidator() -> None:
            try:
                barrier.wait()
                for i in range(200):
                    store.invalidate_table("company" if i % 2 else "trades")
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        threads += [threading.Thread(target=invalidator) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(store) <= store.capacity
        # After the dust settles a fresh record is immediately visible.
        store.record(q, subsets[0], 55.0)
        assert store.lookup(q, subsets[0]) == 55.0
