"""The one-pass leaf kernels keep exactly the rows the row compiler keeps.

Every leaf shape of :func:`compile_batch_predicate` — ``col op literal``,
``[NOT] IN``, ``[NOT] BETWEEN``, ``IS [NOT] NULL``, ``[NOT] LIKE`` — is run
over a column with no selection vector, through a selection vector, and
under a candidate list, and compared with :func:`compile_predicate` (the
oracle) row by row.  The fused single-pass kernel
(:func:`compile_fused_filter`, the partitioned scan's residual filter) is
checked against the serial scan, with its fallback and its compile cache.
A query sweep then pins the vectorized engine to the reference engine, and
a range-partitioned ``t`` (whose scans filter through the fused kernel) to
the plain table.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Optional

import pytest

from repro.catalog import ColumnType, make_schema
from repro.catalog.schema import PartitionSpec
from repro.engine import Database, ExecutionEngine
from repro.executor.batch import ColumnBatch
from repro.executor.expressions import (
    ColumnResolver,
    compile_batch_conjunction,
    compile_batch_predicate,
    compile_fused_filter,
    compile_predicate,
)
from repro.optimizer.plan import ScanNode
from repro.sql.ast import (
    Between,
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    InList,
    IsNull,
    Like,
    Literal,
)
from repro.storage.partition import PartitionedTable

COLUMNS = [("t", "n"), ("t", "s")]
N = Column(ColumnRef("t", "n"))
S = Column(ColumnRef("t", "s"))

NUMBERS = [None, -3, 0, 1, 1, 2, 2.5, 7, True, None, 4, 0.0, -0.0, 9]
STRINGS = [
    None, "", "abc", "abc\n", "\nabc", "a\nc", "ab", "abcabc", "a.c", "a*c", "axc", "ac",
    "a%b", "a_c", "a+b", "[abc]", "(a|b)", "a\\b", "abc$", "^abc", "b", "aXb", "abc\n\n", None,
]
LIKE_PATTERNS = [
    "%b%", "ab%", "%bc", "abc", "%", "%%", "", "a%b", "a_c", "_", "a.c", "a*c", "%.%", "[abc]",
    "%\n", "abc\n", "a%", "%c", "(a|b)", "a\\b", "abc$", "^abc", "%$", "_%_", "a_%", "%a%c%",
]


def leaf_predicates():
    for op in ComparisonOp:
        for literal in (1, 2.5, None):
            yield Comparison(op, N, Literal(literal))
            yield Comparison(op, Literal(literal), N)
        for literal in ("abc", "a", None):
            yield Comparison(op, S, Literal(literal))
    for negated in (False, True):
        yield InList(N, (Literal(1), Literal(7), Literal(2.5)), negated=negated)
        yield InList(N, (Literal(1), Literal(None)), negated=negated)
        yield InList(N, (Literal(None),), negated=negated)
        yield InList(S, (Literal("abc"), Literal("a.c"), Literal("")), negated=negated)
        yield Between(N, Literal(0), Literal(2), negated=negated)
        yield Between(N, Literal(None), Literal(2), negated=negated)
        yield Between(N, Literal(0), Literal(None), negated=negated)
        yield Between(S, Literal("a"), Literal("abc"), negated=negated)
        yield IsNull(N, negated=negated)
        yield IsNull(S, negated=negated)
        yield Like(S, Literal(None), negated=negated)
        for pattern in LIKE_PATTERNS:
            yield Like(S, Literal(pattern), negated=negated)


PREDICATES = list(leaf_predicates())


def batches():
    """(name, batch, per-row (n, s) tuples) in the three storage shapes."""
    rng = random.Random(7)
    rows = [(rng.choice(NUMBERS), rng.choice(STRINGS)) for _ in range(120)]
    rows += list(zip(NUMBERS, STRINGS))
    data = [list(column) for column in zip(*rows)]
    plain = ColumnBatch(COLUMNS, data)
    yield "no-selection", plain, rows
    # The storage grew after the batch was cut: the kernel must stop at len().
    yield "shorter-than-storage", ColumnBatch(COLUMNS, data, length=len(rows) - 9), rows[:-9]
    picks = [rng.randrange(len(rows)) for _ in range(90)]
    yield "selection", plain.restrict(picks), [rows[i] for i in picks]


@pytest.mark.parametrize("predicate", PREDICATES, ids=lambda p: p.to_sql().replace("\n", "\\n"))
def test_leaf_kernels_keep_what_the_row_compiler_keeps(predicate):
    resolver = ColumnResolver(COLUMNS)
    keep = compile_predicate(predicate, resolver)
    kernel = compile_batch_predicate(predicate, resolver)
    rng = random.Random(11)
    for name, batch, rows in batches():
        want = [i for i, row in enumerate(rows) if keep(row)]
        assert kernel(batch, None) == want, name
        candidates = sorted(rng.sample(range(len(rows)), len(rows) // 3))
        assert kernel(batch, candidates) == [i for i in candidates if keep(rows[i])], name
        assert kernel(batch, []) == [], name


def test_conjunctions_thread_candidates_through_the_kernels():
    resolver = ColumnResolver(COLUMNS)
    conjuncts = [
        IsNull(N, negated=True),
        Like(S, Literal("a%")),
        Comparison(ComparisonOp.GE, N, Literal(1)),
        Like(S, Literal("%\n"), negated=True),
    ]
    checks = [compile_predicate(c, resolver) for c in conjuncts]
    run = compile_batch_conjunction(conjuncts, resolver)
    for name, batch, rows in batches():
        want = [i for i, row in enumerate(rows) if all(check(row) for check in checks)]
        assert run(batch) == want, name


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_trailing_newline_through_both_serial_engines(engine):
    db = Database()
    db.create_table(
        make_schema("w", [("id", ColumnType.INT), ("s", ColumnType.TEXT)], primary_key="id")
    )
    db.load_rows("w", [(1, "abc"), (2, "abc\n"), (3, "xbc\n"), (4, None), (5, "c")])
    db.finalize_load()
    db.executor = db.executor_for(engine)

    def ids(where):
        return [row[0] for row in db.run(f"SELECT w.id FROM w AS w WHERE {where}").execution.result.rows]

    assert ids("w.s LIKE 'abc'") == [1]
    assert ids("w.s LIKE '%c'") == [1, 5]
    assert ids("w.s NOT LIKE '%c'") == [2, 3]
    assert ids("w.s LIKE '%c_'") == [2, 3]
    assert ids("w.s LIKE 'abc%'") == [1, 2]


def build_db(partition_by: Optional[PartitionSpec] = None) -> Database:
    """``t`` (120 rows, NULL-bearing ``v``/``s``) and ``u`` (90 rows, FK to ``t``).

    With ``partition_by``, ``t`` is stored as shards, so its scans take the
    partitioned path whose residual filter runs through the fused kernel.
    """
    db = Database()
    db.create_table(
        make_schema(
            "t",
            [("id", ColumnType.INT), ("v", ColumnType.INT), ("s", ColumnType.TEXT)],
            primary_key="id",
            partition_by=partition_by,
        )
    )
    db.create_table(
        make_schema(
            "u",
            [("id", ColumnType.INT), ("tid", ColumnType.INT), ("w", ColumnType.INT)],
            primary_key="id",
            foreign_keys=[("tid", "t", "id")],
        )
    )
    texts = ["a", "ab", "b", None, "ba"]
    db.load_rows(
        "t",
        [
            (i, None if i % 11 == 0 else i % 7, texts[i % len(texts)])
            for i in range(1, 121)
        ],
    )
    db.load_rows(
        "u",
        [
            (i, (i * 3) % 120 + 1, None if i % 13 == 0 else i % 9)
            for i in range(1, 91)
        ],
    )
    db.finalize_load()
    return db


ARITHMETIC = "SELECT t.id, t.v FROM t WHERE (t.v * 2 - 1) % 3 = 0 AND t.id / 2 >= 10"
DISJUNCTION = "SELECT t.id FROM t WHERE t.s LIKE 'a%' OR t.v IN (1, 2, 3) OR t.v IS NULL"
CASE_FILTER = "SELECT count(*) AS n FROM t WHERE CASE WHEN t.v > 2 THEN 1 ELSE 0 END = 1"

#: Queries spanning what the fused kernel and its fallbacks must agree on:
#: arithmetic, LIKE/IN/BETWEEN/NULL filters, division by zero, CASE (no
#: fusion), joins with fan-out, star output, grouping, DISTINCT and
#: ORDER BY + LIMIT over ties.
QUERIES = [
    ARITHMETIC,
    DISJUNCTION,
    "SELECT t.id FROM t WHERE NOT (t.v BETWEEN 2 AND 5) AND t.s IS NOT NULL",
    "SELECT t.id FROM t WHERE t.v / 0 IS NULL ORDER BY t.id LIMIT 10",
    CASE_FILTER,
    "SELECT t.id, u.w FROM t, u WHERE t.id = u.tid AND t.v > 1 "
    "ORDER BY u.w, t.id LIMIT 9",
    "SELECT * FROM t, u WHERE t.id = u.tid ORDER BY t.v DESC, u.id LIMIT 7",
    "SELECT t.v AS k, count(*) AS n, sum(u.w) AS s FROM t, u "
    "WHERE t.id = u.tid GROUP BY t.v ORDER BY k",
    "SELECT DISTINCT t.v FROM t WHERE t.s LIKE '%b%' ORDER BY t.v",
]

#: Four id-range shards of ``t``; every query above spans several of them.
RANGE_SHARDS = PartitionSpec(method="range", column="id", bounds=(30, 60, 90))


@pytest.mark.parametrize("sql", QUERIES)
def test_vectorized_engine_matches_the_reference_engine(sql):
    """Same rows in the same order, same charged work, same cardinalities."""
    db = build_db()
    planned = db.plan(sql)
    vectorized = db.executor_for(ExecutionEngine.VECTORIZED).execute(planned.plan)
    oracle = db.executor_for(ExecutionEngine.REFERENCE).execute(planned.plan)
    assert list(vectorized.result.rows) == list(oracle.result.rows)
    assert vectorized.result.columns == oracle.result.columns
    assert vectorized.total_work == oracle.total_work
    for node_id, metrics in oracle.node_metrics.items():
        assert vectorized.node_metrics[node_id].actual_rows == metrics.actual_rows, (
            metrics.label
        )


@pytest.mark.parametrize("sql", QUERIES)
def test_partitioned_scan_residual_matches_the_unpartitioned_table(sql):
    """The fused residual over shards keeps exactly the rows a plain scan keeps."""
    plain = build_db()
    sharded = build_db(partition_by=RANGE_SHARDS)
    assert isinstance(sharded.catalog.table("t"), PartitionedTable)
    expected = plain.run(sql).rows
    got = sharded.run(sql).rows
    if "ORDER BY" in sql:
        assert list(got) == list(expected)
    else:
        assert Counter(got) == Counter(expected)


class TestFusedFilterKernels:
    def _scan_filters(self, db: Database, sql: str):
        planned = db.plan(sql)
        scan = next(
            node
            for node in planned.plan.walk()
            if isinstance(node, ScanNode) and node.filters
        )
        table = db.catalog.table(scan.table)
        data = table.column_data()
        batch = ColumnBatch(
            [(scan.alias, name) for name in table.schema.column_names],
            data,
            length=table.row_count,
        )
        return list(scan.filters), batch, data

    def test_kernel_compiles_and_matches_serial_selection(self):
        db = build_db()
        sql = DISJUNCTION
        filters, batch, data = self._scan_filters(db, sql)
        kernel = compile_fused_filter(filters, batch.resolver)
        assert kernel is not None
        assert "def _fused" in kernel._fused_source
        # One fused pass over the whole table == the serial scan's selection.
        serial = db.executor_for(ExecutionEngine.VECTORIZED)
        planned = db.plan(sql)
        expected = serial.execute(planned.plan).result.rows
        kept = kernel(data, 0, len(batch))
        got = [(data[0][i],) for i in kept]
        assert got == list(expected), sql

    def test_kernel_is_cached_per_filter_shape(self):
        db = build_db()
        filters, batch, _ = self._scan_filters(db, ARITHMETIC)
        first = compile_fused_filter(filters, batch.resolver)
        second = compile_fused_filter(filters, batch.resolver)
        assert first is second

    def test_case_expression_falls_back_to_generic_scan(self):
        db = build_db()
        filters, batch, _ = self._scan_filters(db, CASE_FILTER)
        assert compile_fused_filter(filters, batch.resolver) is None
        # ...and the engine still answers the query correctly through the
        # per-node batch compiler.
        planned = db.plan(CASE_FILTER)
        serial = db.executor_for(ExecutionEngine.VECTORIZED).execute(planned.plan)
        oracle = db.executor_for(ExecutionEngine.REFERENCE).execute(planned.plan)
        assert list(serial.result.rows) == list(oracle.result.rows)

    def test_division_by_zero_and_null_semantics_in_kernel(self):
        db = build_db()
        sql = "SELECT t.id FROM t WHERE t.v / 0 IS NULL AND t.v % 0 IS NULL"
        filters, batch, data = self._scan_filters(db, sql)
        kernel = compile_fused_filter(filters, batch.resolver)
        assert kernel is not None
        serial = db.executor_for(ExecutionEngine.VECTORIZED).execute(db.plan(sql).plan)
        got = [(data[0][i],) for i in kernel(data, 0, len(batch))]
        assert got == list(serial.result.rows)
        assert len(got) == 120  # NULL for every row, incl. NULL v
