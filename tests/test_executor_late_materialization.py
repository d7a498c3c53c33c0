"""Late-materializing scans: projection pushdown, compressed-domain kernels,
segment skipping.

Every engine-level test here runs the *same planned query* through all three
engines over compressed partitioned storage and pins the rows against an
identically loaded but uncompressed copy — the decode path is the oracle for
the compressed-domain kernels, and the row-at-a-time reference engine
(always full-width) is the oracle for projection pushdown.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog.schema import ColumnType, PartitionSpec, make_schema
from repro.engine import Database, ExecutionEngine
from repro.engine.settings import EngineSettings
from repro.executor import scan as scan_module
from repro.executor.scan import _CompiledFilters, _dictionary_filter, _rle_filter
from repro.optimizer.plan import ScanNode
from repro.storage.compression import (
    BLOCK_ROWS,
    DictionarySegment,
    RLESegment,
    compute_block_stats,
    encode_segment,
)

ENGINES = (ExecutionEngine.VECTORIZED, ExecutionEngine.REFERENCE)

ROWS_PER_SHARD = BLOCK_ROWS * 2 + 500  # forces multiple stat blocks per shard
NUM_SHARDS = 3


def wide_schema(bounds=(ROWS_PER_SHARD, ROWS_PER_SHARD * 2)):
    return make_schema(
        "events",
        [
            ("id", ColumnType.INT),
            ("cat", ColumnType.TEXT),  # low cardinality -> dictionary
            ("phase", ColumnType.TEXT),  # long runs -> RLE
            ("val", ColumnType.INT),  # distinct -> plain
            ("note", ColumnType.TEXT),  # NULL-heavy
        ],
        primary_key="id",
        partition_by=PartitionSpec(method="range", column="id", bounds=bounds),
    )


def event_rows(count=ROWS_PER_SHARD * NUM_SHARDS, seed=42):
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        # Runs of 1500 straddle both the 1024-row stat blocks and the
        # shard boundaries at multiples of ROWS_PER_SHARD.
        phase = f"phase{(i // 1500) % 4}"
        cat = "needle" if i % 97 == 0 else f"cat{rng.randrange(5)}"
        note = None if i % 3 else f"note{i % 7}"
        rows.append((i, cat, phase, rng.randrange(10_000), note))
    return rows


def build_pair(rows=None, codec="auto"):
    """The same rows twice: compressed and uncompressed partitioned tables."""
    rows = event_rows() if rows is None else rows
    databases = []
    for compress in (True, False):
        db = Database(EngineSettings())
        db.create_table(wide_schema())
        db.load_rows("events", rows)
        db.finalize_load()
        if compress:
            db.catalog.table("events").compress(codec)
        databases.append(db)
    return databases


def assert_engines_agree(compressed: Database, plain: Database, sql: str):
    """One plan per database; all engines and both storages emit equal rows."""
    planned = compressed.plan(sql)
    results = [
        compressed.executor_for(engine).execute(planned.plan).result.rows
        for engine in ENGINES
    ]
    oracle = plain.run(sql).rows
    for engine, rows in zip(ENGINES, results):
        assert rows == oracle, f"{engine.value} diverged on {sql!r}"
    return oracle


# -- compressed-domain kernels vs the decode path -----------------------------


def test_rle_runs_spanning_block_and_shard_boundaries():
    compressed, plain = build_pair()
    table = compressed.catalog.table("events")
    phase_position = table.schema.column_index("phase")
    assert any(
        isinstance(partition.segment_at(phase_position), RLESegment)
        for partition in table.partitions()
    )
    rows = assert_engines_agree(
        compressed,
        plain,
        "SELECT e.id AS id, e.phase AS phase FROM events AS e "
        "WHERE e.phase = 'phase1'",
    )
    assert rows  # runs straddle shard 0/1: both sides must contribute
    # A second conjunct makes the run kernel consume a candidate list.
    assert_engines_agree(
        compressed,
        plain,
        "SELECT e.id AS id FROM events AS e "
        "WHERE e.phase IN ('phase0', 'phase2') AND e.cat = 'needle'",
    )


def test_dictionary_kernel_with_all_null_segment():
    rows = event_rows()
    # Shard 0 stores only NULL notes; forced dictionary codec gives a
    # NULL-only dictionary segment there.
    rows = [
        row[:4] + ((None,) if row[0] < ROWS_PER_SHARD else row[4:])
        for row in rows
    ]
    compressed, plain = build_pair(rows, codec="dictionary")
    table = compressed.catalog.table("events")
    note_position = table.schema.column_index("note")
    first = table.partitions()[0].segment_at(note_position)
    assert isinstance(first, DictionarySegment)
    assert set(first.dictionary) == {None}
    assert_engines_agree(
        compressed,
        plain,
        "SELECT e.id AS id FROM events AS e WHERE e.note = 'note1'",
    )
    assert_engines_agree(
        compressed,
        plain,
        "SELECT e.id AS id FROM events AS e WHERE e.note IS NULL "
        "AND e.id < 9000",
    )


def test_empty_partitions_scan_clean():
    # Every row routes below the first bound: shards 1 and 2 stay empty.
    rows = event_rows(count=800)
    compressed, plain = build_pair(rows)
    assert [p.row_count for p in compressed.catalog.table("events").partitions()][
        1:
    ] == [0, 0]
    assert_engines_agree(
        compressed,
        plain,
        "SELECT e.id AS id, e.cat AS cat FROM events AS e "
        "WHERE e.cat = 'needle' AND e.phase <> 'phase9'",
    )


def test_seeded_fuzz_compressed_domain_agrees_with_decode_path():
    compressed, plain = build_pair()
    rng = random.Random(20190214)
    predicates = []
    for _ in range(25):
        clauses = rng.sample(
            [
                f"e.cat = 'cat{rng.randrange(6)}'",
                f"e.phase <> 'phase{rng.randrange(4)}'",
                f"e.val BETWEEN {rng.randrange(5000)} AND {rng.randrange(5000, 10000)}",
                f"e.id >= {rng.randrange(ROWS_PER_SHARD * NUM_SHARDS)}",
                "e.note IS NULL",
                "e.note IN ('note1', 'note4', 'missing')",
                "e.cat LIKE 'cat%'",
                f"NOT (e.phase = 'phase{rng.randrange(4)}')",
            ],
            k=rng.randrange(1, 4),
        )
        predicates.append(" AND ".join(clauses))
    for predicate in predicates:
        assert_engines_agree(
            compressed,
            plain,
            f"SELECT e.id AS id, e.note AS note FROM events AS e WHERE {predicate}",
        )


# -- projection pushdown / EXPLAIN / metrics ----------------------------------


def test_explain_renders_columns_read_and_skip_metrics():
    compressed, _ = build_pair()
    sql = (
        "SELECT e.cat AS cat FROM events AS e "
        f"WHERE e.id BETWEEN 100 AND 400 AND e.cat LIKE 'cat%'"
    )
    text = compressed.explain(sql)
    assert "Columns: 2/5 read" in text, text  # cat (select) + id (filter)

    analyzed = compressed.explain(sql, analyze=True)
    assert "columns_decoded=" in analyzed, analyzed
    assert "segments_skipped=" in analyzed, analyzed
    assert "Segments: " in analyzed and " skipped" in analyzed, analyzed

    # SELECT * stays full width: no Columns line on the scan.
    star = compressed.explain("SELECT * FROM events AS e WHERE e.id < 50")
    assert "Columns:" not in star, star


def test_scan_metrics_count_skipped_blocks_and_decoded_columns():
    compressed, _ = build_pair()
    planned = compressed.plan(
        "SELECT e.val AS val FROM events AS e "
        "WHERE e.id BETWEEN 2000 AND 2100 AND e.phase = 'phase1'"
    )
    scan = next(
        node for node in planned.plan.walk() if isinstance(node, ScanNode)
    )
    execution = compressed.executor_for(ExecutionEngine.VECTORIZED).execute(planned.plan)
    metrics = execution.node_metrics[scan.node_id]
    skipped, decoded = metrics.segments_skipped, metrics.columns_decoded
    assert skipped and skipped > 0  # most 1024-row blocks refute the id range
    assert decoded <= len(scan.columns)


def test_partitioned_column_values_gathers_only_that_column():
    compressed, _ = build_pair()
    table = compressed.catalog.table("events")
    cat_position = table.schema.column_index("cat")
    values = table.column_values("cat")
    assert len(values) == table.row_count
    # Other compressed columns stay undecoded: one column was gathered.
    for partition in table.partitions():
        for position, _ in enumerate(table.schema.columns):
            segment = partition.segment_at(position)
            if position != cat_position and segment is not None:
                assert getattr(segment, "_decoded", None) is None
    # The per-column gather is cached (and handed out as a copy).
    again = table.column_values("cat")
    assert again == values and again is not values
    assert list(table._gathered_cols) == [cat_position]


# -- unit level: kernels and block statistics ---------------------------------


def test_dictionary_filter_null_only_segment_unit():
    segment = encode_segment([None] * 10, codec="dictionary")
    assert isinstance(segment, DictionarySegment)
    kept = _dictionary_filter(segment, lambda v: v == "x", None, 10)
    assert kept == []
    kept = _dictionary_filter(segment, lambda v: v is None, [3, 7], 10)
    assert kept == [3, 7]  # all-match shortcut: candidates pass through
    assert segment.gather([0, 9]) == [None, None]


def test_rle_filter_candidate_walk_unit():
    values = ["a"] * 5 + ["b"] * 4 + ["a"] * 3
    segment = encode_segment(values, codec="rle")
    assert isinstance(segment, RLESegment)
    assert _rle_filter(segment, lambda v: v == "a", None) == [
        *range(0, 5),
        *range(9, 12),
    ]
    assert _rle_filter(segment, lambda v: v == "b", [0, 4, 5, 8, 9, 11]) == [5, 8]


def test_block_stats_sealed_and_type_safe():
    values = list(range(BLOCK_ROWS)) + [None] * 10 + list(range(50))
    stats = compute_block_stats(values)
    assert stats[0] == (0, BLOCK_ROWS - 1, 0)
    assert stats[1] == (0, 49, 10)
    # Mixed-type blocks are uncomparable: no synopsis, never refuted.
    mixed = compute_block_stats([1, "x", 2])
    assert mixed == [None]
    # So are blocks holding a NaN, wherever it sits.
    floats = [1.0] * BLOCK_ROWS + [2.0, float("nan"), None] + [float("nan"), 3.0]
    assert compute_block_stats(floats) == [(1.0, 1.0, 0), None]
    assert compute_block_stats([float("nan"), 3.0]) == [None]
    segment = encode_segment(values)
    assert segment.block_stats() == stats


def test_projection_keeps_filter_and_fallback_columns():
    compressed, _ = build_pair()
    planned = compressed.plan(
        "SELECT e.note AS note FROM events AS e WHERE e.cat = 'needle'"
    )
    scan = next(
        node for node in planned.plan.walk() if isinstance(node, ScanNode)
    )
    # note (select) + cat (filter) + id (first schema column, kept for the
    # adaptive re-planner's handover fallback).
    assert scan.columns == ("id", "cat", "note")
    assert scan.columns_total == 5


@pytest.mark.parametrize("engine", ENGINES)
def test_select_star_stays_full_width(engine):
    compressed, plain = build_pair()
    planned = compressed.plan("SELECT * FROM events AS e WHERE e.id < 1200")
    scan = next(
        node for node in planned.plan.walk() if isinstance(node, ScanNode)
    )
    assert scan.columns is None
    rows = compressed.executor_for(engine).execute(planned.plan).result.rows
    assert rows == plain.run("SELECT * FROM events AS e WHERE e.id < 1200").rows


def test_a_nan_in_a_block_skips_nothing():
    db = Database(EngineSettings())
    db.create_table(make_schema("f", [("i", ColumnType.INT), ("x", ColumnType.FLOAT)]))
    db.load_rows("f", [(i, float("nan") if i == 0 else float(i % 7)) for i in range(3000)])
    db.finalize_load()
    db.catalog.table("f").compress()
    for predicate, expected in (("f.x = 5.0", 428), ("f.x <> 5.0", 2572)):
        planned = db.plan(f"SELECT count(*) AS n FROM f AS f WHERE {predicate}")
        for engine in ENGINES:
            rows = db.executor_for(engine).execute(planned.plan).result.rows
            assert rows == [(expected,)], (predicate, engine)


# -- proven conjuncts are dropped per shard ------------------------------------


def scan_of(planned) -> ScanNode:
    return next(node for node in planned.plan.walk() if isinstance(node, ScanNode))


def proven_by_shard(db: Database, sql: str):
    """Per shard, the scan conjuncts (as SQL) its zone map proves TRUE."""
    scan = scan_of(db.plan(sql))
    table = db.catalog.table(scan.table)
    compiled = _CompiledFilters(scan.alias, scan.filters, table.schema)
    return [
        sorted(compiled.filters[i].to_sql() for i in compiled.proven(shard.zone_map))
        for shard in table.partitions()
    ]


def scan_outcome(db: Database, sql: str):
    """The vectorized scan's rows and counters."""
    planned = db.plan(sql)
    execution = db.executor_for(ExecutionEngine.VECTORIZED).execute(planned.plan)
    metrics = execution.node_metrics[scan_of(planned).node_id]
    return execution.result.rows, metrics.segments_skipped, metrics.columns_decoded


def assert_drop_agrees(monkeypatch, compressed, plain, sql, proven):
    """Rows and order equal the oracle's; each shard proves ``proven``; rows
    and scan counters are the same with every proof switched off."""
    assert_engines_agree(compressed, plain, sql)
    assert proven_by_shard(compressed, sql) == proven
    with_proofs = scan_outcome(compressed, sql)
    with monkeypatch.context() as patch:
        patch.setattr(scan_module, "must_match", lambda expr, zone_map: False)
        assert scan_outcome(compressed, sql) == with_proofs


def test_a_range_proven_on_whole_shards_and_ending_mid_shard(monkeypatch):
    compressed, plain = build_pair()
    assert_drop_agrees(
        monkeypatch,
        compressed,
        plain,
        "SELECT e.id AS id, e.cat AS cat FROM events AS e "
        "WHERE e.id < 3000 AND e.cat = 'needle'",
        [["e.id < 3000"], [], []],
    )
    # Covers shard 1 whole, ends inside shards 0 and 2.
    assert_drop_agrees(
        monkeypatch,
        compressed,
        plain,
        "SELECT e.id AS id, e.val AS val FROM events AS e "
        "WHERE e.id BETWEEN 2000 AND 6000",
        [[], ["e.id BETWEEN 2000 AND 6000"], []],
    )


def test_a_conjunct_proven_in_one_shard_not_its_neighbour(monkeypatch):
    compressed, plain = build_pair()
    table = compressed.catalog.table("events")
    phase = table.schema.column_index("phase")
    assert isinstance(table.partitions()[0].segment_at(phase), RLESegment)
    # Shard 0 holds phase0/phase1 only; shards 1 and 2 hold phase3 rows.
    assert_drop_agrees(
        monkeypatch,
        compressed,
        plain,
        "SELECT e.id AS id, e.phase AS phase FROM events AS e "
        "WHERE e.phase <> 'phase3' AND e.val < 5000",
        [["e.phase <> 'phase3'"], [], []],
    )


def test_proven_conjuncts_over_dictionary_and_rle_segments(monkeypatch):
    compressed, plain = build_pair()
    table = compressed.catalog.table("events")
    cat = table.schema.column_index("cat")
    assert all(
        isinstance(shard.segment_at(cat), DictionarySegment) for shard in table.partitions()
    )
    conjuncts = ["e.cat >= 'cat0'", "e.phase BETWEEN 'phase0' AND 'phase3'"]
    assert_drop_agrees(
        monkeypatch,
        compressed,
        plain,
        "SELECT e.id AS id, e.note AS note FROM events AS e WHERE "
        + " AND ".join(conjuncts)
        + " AND e.note IS NULL",
        [sorted(conjuncts)] * NUM_SHARDS,
    )


def test_a_load_after_a_scan_widens_the_proven_zone(monkeypatch):
    compressed, plain = build_pair()
    sql = "SELECT e.id AS id, e.val AS val FROM events AS e WHERE e.val < 10000"
    proven_everywhere = [["e.val < 10000"]] * NUM_SHARDS
    before = assert_engines_agree(compressed, plain, sql)
    assert proven_by_shard(compressed, sql) == proven_everywhere
    pinned = compressed.snapshot()
    # id -1 routes to shard 0 and lies outside its proof.
    for db in (compressed, plain):
        db.load_rows("events", [(-1, "cat1", "phase0", 10_005, None)])
    assert_drop_agrees(
        monkeypatch, compressed, plain, sql, [[]] + proven_everywhere[1:]
    )
    assert (-1, 10_005) not in compressed.run(sql).rows
    # The snapshot pinned before the load keeps its rows and its proofs.
    assert pinned.run(sql).rows == before
    assert proven_by_shard(pinned, sql) == proven_everywhere
    planned = pinned.plan(sql)
    for engine in ENGINES:
        assert pinned.executor_for(engine).execute(planned.plan).result.rows == before


def test_a_null_in_the_column_blocks_the_proof(monkeypatch):
    rows = event_rows()
    rows[5] = rows[5][:3] + (None,) + rows[5][4:]
    compressed, plain = build_pair(rows)
    assert_drop_agrees(
        monkeypatch,
        compressed,
        plain,
        "SELECT e.id AS id FROM events AS e WHERE e.val < 10000",
        [[], ["e.val < 10000"], ["e.val < 10000"]],
    )


def test_a_comparison_with_null_is_never_proven(monkeypatch):
    compressed, plain = build_pair()
    assert_drop_agrees(
        monkeypatch,
        compressed,
        plain,
        "SELECT e.id AS id FROM events AS e WHERE e.val <> NULL",
        [[], [], []],
    )
