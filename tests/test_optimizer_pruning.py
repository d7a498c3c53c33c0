"""Zone-map and routing partition pruning, and its EXPLAIN surface."""

from __future__ import annotations

from repro.catalog.schema import ColumnType, PartitionSpec, make_schema
from repro.engine import Database
from repro.engine.settings import EngineSettings
from repro.executor.executor import ExecutionEngine
from repro.optimizer.pruning import may_match, must_match, prune_partitions
from repro.sql.ast import Between, Comparison, ComparisonOp, Literal, column
from repro.sql.parser import parse_expression
from repro.storage.partition import ColumnZone, ZoneMap
from repro.storage.table import Table

NAN = float("nan")


def make_range_table() -> Table:
    """id-range shards [..9], [10..19], [20..]; `score` NULL-heavy on purpose."""
    table = Table(
        make_schema(
            "t",
            [("id", ColumnType.INT), ("score", ColumnType.INT), ("tag", ColumnType.TEXT)],
            partition_by=PartitionSpec(method="range", column="id", bounds=(10, 20)),
        )
    )
    table.load_columns(
        [
            # partition 0 (ids 1, 5): scores all NULL, tags present;
            # partition 1 (ids 15, 15): a single-value id shard, tags all NULL;
            # partition 2 stays empty
            [1, 5, 15, 15],
            [None, None, 3, 7],
            ["a", "b", None, None],
        ]
    )
    return table


def pruned_for(table, sql_predicate: str):
    pruned, total = prune_partitions(table, [parse_expression(sql_predicate)])
    return set(pruned), total


def test_no_filters_prunes_nothing():
    table = make_range_table()
    assert prune_partitions(table, []) == ((), 3)


def test_range_pruning_and_flipped_comparisons():
    table = make_range_table()
    assert pruned_for(table, "t.id > 10") == ({0, 2}, 3)
    # Literal-left orientation must flip the operator, not reuse it.
    assert pruned_for(table, "10 > t.id") == ({1, 2}, 3)
    assert pruned_for(table, "t.id = 15") == ({0, 2}, 3)
    assert pruned_for(table, "t.id BETWEEN 2 AND 9") == ({1, 2}, 3)
    assert pruned_for(table, "t.id IN (4, 99)") == ({1, 2}, 3)


def test_not_predicates_prune_through_nnf_rewrite():
    table = make_range_table()
    # NOT (id >= 10) == id < 10: keeps only partition 0.
    assert pruned_for(table, "NOT (t.id >= 10)") == ({1, 2}, 3)
    # NOT BETWEEN over partition 1's exact id range refutes that shard.
    assert pruned_for(table, "t.id NOT BETWEEN 15 AND 15") == ({1, 2}, 3)
    # De Morgan over an OR tree: both branches must fail per shard.
    assert pruned_for(table, "NOT (t.id < 10 OR t.id = 15)") == ({0, 1, 2}, 3)


def test_empty_partitions_are_pruned_under_any_filter():
    table = make_range_table()
    pruned, _ = pruned_for(table, "t.tag LIKE '%'")
    assert 2 in pruned


def test_all_null_partitions_refute_strict_predicates():
    table = make_range_table()
    # Partition 0's scores are all NULL: any comparison on score is UNKNOWN
    # there, as is arithmetic over score.
    assert 0 in pruned_for(table, "t.score > 0")[0]
    assert 0 in pruned_for(table, "t.score * 2 + 1 = 7")[0]
    assert 0 in pruned_for(table, "t.score IS NOT NULL")[0]
    assert 0 in pruned_for(table, "t.score IN (1, 2)")[0]
    assert 0 in pruned_for(table, "t.score BETWEEN 1 AND 9")[0]
    assert 0 in pruned_for(table, "t.score NOT LIKE 'x%'")[0]
    # ... but NULL-seeking predicates keep it.
    assert 0 not in pruned_for(table, "t.score IS NULL")[0]
    # Partition 1's tags are all NULL symmetrically.
    assert 1 in pruned_for(table, "t.tag = 'a'")[0]
    assert 1 not in pruned_for(table, "t.tag IS NULL")[0]


def test_single_value_shards_prune_inequality_and_not_in():
    table = make_range_table()
    # Partition 1 holds only id=15.
    assert 1 in pruned_for(table, "t.id <> 15")[0]
    assert 1 in pruned_for(table, "t.id NOT IN (15, 99)")[0]
    assert 1 not in pruned_for(table, "t.id NOT IN (14)")[0]
    # NOT IN with a NULL item is never TRUE anywhere.
    assert pruned_for(table, "t.id NOT IN (1, NULL)") == ({0, 1, 2}, 3)


def test_null_comparands_prune_everything():
    table = make_range_table()
    assert pruned_for(table, "t.id = NULL") == ({0, 1, 2}, 3)
    assert pruned_for(table, "t.id BETWEEN NULL AND 5") == ({0, 1, 2}, 3)


def test_flipped_between_bounds_prune_everything():
    table = make_range_table()
    assert pruned_for(table, "t.id BETWEEN 9 AND 2") == ({0, 1, 2}, 3)
    # NOT BETWEEN with flipped bounds keeps every non-NULL row instead.
    assert pruned_for(table, "t.id NOT BETWEEN 9 AND 2")[0] == {2}


def test_conjuncts_combine_and_unknown_shapes_stay_conservative():
    table = make_range_table()
    pruned, _ = prune_partitions(
        table,
        [parse_expression("t.id < 10"), parse_expression("t.tag = 'a'")],
    )
    assert set(pruned) == {1, 2}
    # An opaque predicate shape cannot prune populated shards on its own.
    pruned, _ = prune_partitions(table, [parse_expression("t.id % 2 = 1")])
    assert set(pruned) == {2}  # only the empty shard


def test_hash_partitions_prune_by_key_routing():
    table = Table(
        make_schema(
            "r",
            [("id", ColumnType.INT), ("gid", ColumnType.INT)],
            partition_by=PartitionSpec(method="hash", column="gid", partitions=4),
        )
    )
    table.load_columns([list(range(40)), [i % 9 for i in range(40)]])
    # Zone maps cannot refute hash shards (every shard spans the key range);
    # equality routing can.
    pruned, total = prune_partitions(table, [parse_expression("r.gid = 3")])
    assert total == 4
    assert set(pruned) == {0, 1, 2, 3} - {table.route(3)}
    pruned, _ = prune_partitions(table, [parse_expression("r.gid IN (3, 5)")])
    assert set(pruned) == {0, 1, 2, 3} - {table.route(3), table.route(5)}
    # Negated forms must NOT route.
    pruned, _ = prune_partitions(table, [parse_expression("NOT (r.gid = 3)")])
    assert set(pruned) == set()


# -- planner/executor surface -------------------------------------------------


def build_partitioned_db() -> Database:
    db = Database()
    db.create_table(
        "CREATE TABLE events (id INT, kind TEXT) "
        "PARTITION BY RANGE (id) VALUES (100, 200, 300)"
    )
    db.load_rows("events", [(i, f"k{i % 5}") for i in range(400)])
    db.finalize_load()
    return db


def test_explain_renders_partitions_scanned():
    db = build_partitioned_db()
    plan_text = db.explain(
        "SELECT count(e.id) AS n FROM events AS e WHERE e.id < 100"
    )
    assert "Partitions: 1/4 scanned" in plan_text
    # Unfiltered scans read everything and stay silent about pruning.
    assert "Partitions: 4/4 scanned" in db.explain(
        "SELECT count(e.id) AS n FROM events AS e"
    )


def test_explain_analyze_reports_prune_metrics():
    db = build_partitioned_db()
    text = db.explain(
        "SELECT count(e.id) AS n FROM events AS e WHERE e.id BETWEEN 150 AND 160",
        analyze=True,
    )
    assert "partitions_scanned=1" in text
    assert "partitions_pruned=3" in text


def test_cardinality_estimate_respects_zone_map_upper_bound():
    db = build_partitioned_db()
    planned = db.plan("SELECT count(e.id) AS n FROM events AS e WHERE e.id < 100")
    scan = [n for n in planned.plan.walk() if n.label().startswith("Seq Scan")][0]
    storage = db.catalog.table("events")
    assert scan.estimated_rows <= storage.scanned_rows(scan.pruned_partitions)


def test_pruned_scans_agree_across_engines_and_match_plain_storage():
    db = build_partitioned_db()
    plain = Database()
    plain.create_table(make_schema("events", [("id", ColumnType.INT), ("kind", ColumnType.TEXT)]))
    plain.load_rows("events", [(i, f"k{i % 5}") for i in range(400)])
    plain.finalize_load()
    sql = (
        "SELECT e.kind AS k, count(*) AS n FROM events AS e "
        "WHERE e.id BETWEEN 120 AND 260 GROUP BY e.kind ORDER BY k"
    )
    expected = plain.run(sql).rows
    planned = db.plan(sql)
    for engine in (ExecutionEngine.VECTORIZED, ExecutionEngine.REFERENCE):
        execution = db.executor_for(engine).execute(planned.plan)
        assert execution.result.rows == expected, engine


def test_stale_plan_reprunes_at_execution_time():
    """Cached plans must not lose rows loaded after planning.

    Table loads do not bump the catalog epoch, so a plan's recorded pruning
    can go stale; the executor re-derives it at execution time.
    """
    db = Database(EngineSettings(auto_foreign_key_indexes=False))
    db.create_table(
        "CREATE TABLE events (id INT, kind TEXT) "
        "PARTITION BY RANGE (id) VALUES (100, 200, 300)"
    )
    db.load_rows("events", [(i, "x") for i in range(100)])  # partition 0 only
    db.analyze()
    sql = "SELECT count(e.id) AS n FROM events AS e WHERE e.id >= 0"
    planned = db.plan(sql)
    scan = [n for n in planned.plan.walk() if n.label().startswith("Seq Scan")][0]
    # At plan time partitions 1-3 were empty, hence recorded as pruned.
    assert len(scan.pruned_partitions) == 3
    db.load_rows("events", [(i, "y") for i in range(100, 400)])
    execution = db.executor.execute(planned.plan)
    assert execution.result.rows == [(400,)]


# -- NaN: a zone whose extremes bound nothing ---------------------------------


def nan_table(partitioned: bool) -> Database:
    """``(0, NaN), (1, 5.0), (2, 5.0), (3, NaN)``, range shards at id 2.

    Shard 0 *starts* with a NaN (its zone once read ``(nan, nan)``), shard 1
    *ends* with one (once hidden from its ``(5.0, 5.0)`` zone).
    """
    db = Database()
    spec = PartitionSpec(method="range", column="id", bounds=(2,)) if partitioned else None
    db.create_table(
        make_schema(
            "t", [("id", ColumnType.INT), ("x", ColumnType.FLOAT)], partition_by=spec
        )
    )
    db.load_rows("t", [(0, NAN), (1, 5.0), (2, 5.0), (3, NAN)])
    db.finalize_load()
    return db


def test_a_nan_in_a_shard_refutes_nothing():
    partitioned, plain = nan_table(True), nan_table(False)
    for predicate, expected in (
        ("t.x = 5.0", [(1,), (2,)]),
        ("t.x <> 5.0", [(0,), (3,)]),
        ("t.x > 4.0", [(1,), (2,)]),
        ("t.x NOT IN (5.0)", [(0,), (3,)]),
        ("t.x NOT BETWEEN 5.0 AND 5.0", [(0,), (3,)]),
    ):
        sql = f"SELECT t.id AS id FROM t AS t WHERE {predicate} ORDER BY id"
        assert plain.run(sql).rows == expected, predicate
        planned = partitioned.plan(sql)
        for engine in (ExecutionEngine.VECTORIZED, ExecutionEngine.REFERENCE):
            rows = partitioned.executor_for(engine).execute(planned.plan).result.rows
            assert rows == expected, (predicate, engine)
    zones = [shard.zone_map.columns["x"] for shard in partitioned.catalog.table("t").partitions()]
    assert [zone.has_nan for zone in zones] == [True, True]


def test_a_nan_zone_decides_only_null_tests():
    zone_map = ZoneMap(row_count=3, columns={"x": ColumnZone(1.0, 2.0, 0, has_nan=True)})
    for predicate in ("t.x = 1.5", "t.x <> 1.5", "t.x > 9.0", "t.x IN (7.0)", "t.x BETWEEN 5.0 AND 6.0"):
        assert may_match(parse_expression(predicate), zone_map), predicate
        assert not must_match(parse_expression(predicate), zone_map), predicate
    assert not may_match(parse_expression("t.x IS NULL"), zone_map)
    # NOT (x IS NULL) is the proof; NaN zones still know their NULL count.
    assert may_match(parse_expression("t.x IS NOT NULL"), zone_map)


# -- must_match: proofs from the same synopsis --------------------------------


def shard_zone(row_count=10, **columns) -> ZoneMap:
    return ZoneMap(
        row_count=row_count,
        columns={name: ColumnZone(*entry) for name, entry in columns.items()},
    )


def test_must_match_proves_ranges_that_cover_the_zone():
    zone_map = shard_zone(id=(10, 19, 0), tag=("a", "c", 0))
    for predicate in (
        "t.id < 20",
        "t.id >= 10",
        "30 > t.id",
        "t.id BETWEEN 10 AND 19",
        "t.id NOT BETWEEN 20 AND 30",
        "t.id <> 9",
        "t.id NOT IN (1, 2, 99)",
        "t.id IS NOT NULL",
        "NOT (t.id >= 20)",
        "t.id < 5 OR t.tag <= 'c'",
        "t.tag BETWEEN 'a' AND 'd'",
    ):
        assert must_match(parse_expression(predicate), zone_map), predicate
    for predicate in (
        "t.id < 19",
        "t.id BETWEEN 11 AND 19",
        "t.id IN (10, 19)",
        "t.id IS NULL",
        "t.tag LIKE '%'",
        "t.id % 2 = 0 OR t.id % 2 = 1",
        "t.id < 20 AND t.id > 10",
        "t.id < 15 OR t.id >= 15",  # a tautology no single bound shows
        "t.score > 0",  # untracked column
    ):
        assert not must_match(parse_expression(predicate), zone_map), predicate


def test_must_match_needs_a_column_without_nulls():
    zone_map = shard_zone(id=(10, 19, 1))
    assert may_match(parse_expression("t.id < 20"), zone_map)
    assert not must_match(parse_expression("t.id < 20"), zone_map)
    assert not must_match(parse_expression("t.id IS NOT NULL"), zone_map)


def test_must_match_never_proves_a_null_or_nan_literal():
    zone_map = shard_zone(id=(10, 19, 0), x=(1.0, 2.0, 0))
    assert not must_match(parse_expression("t.id <> NULL"), zone_map)
    assert not must_match(parse_expression("t.id NOT IN (5, NULL)"), zone_map)
    x, nan = column("t", "x"), Literal(NAN)
    # x >= NaN is FALSE on every row, though its negation x < NaN is too.
    ge_nan = Comparison(ComparisonOp.GE, x, nan)
    assert not must_match(ge_nan, zone_map)
    assert not may_match(ge_nan, zone_map)
    # x NOT BETWEEN NaN AND 0.5 is TRUE on every non-NULL row.
    not_between = Between(x, nan, Literal(0.5), negated=True)
    assert may_match(not_between, zone_map)
    assert not must_match(not_between, zone_map)
