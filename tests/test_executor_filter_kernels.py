"""The one-pass leaf kernels keep exactly the rows the row compiler keeps.

Every leaf shape of :func:`compile_batch_predicate` — ``col op literal``,
``[NOT] IN``, ``[NOT] BETWEEN``, ``IS [NOT] NULL``, ``[NOT] LIKE`` — is run
over a column with no selection vector, through a selection vector, and
under a candidate list, and compared with :func:`compile_predicate` (the
oracle) row by row; :func:`compile_batch_conjunction` is checked the same
way, with and without a candidate list.  A query sweep then pins the
vectorized engine to the reference engine, and a range-partitioned ``t``
(whose shard residuals filter through the same batch compiler, threaded
with the candidates segment skipping left) to the plain table.
"""

from __future__ import annotations

import random
import sqlite3
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
    rng = random.Random(13)
    for name, batch, rows in batches():
        keep = [all(check(row) for check in checks) for row in rows]
        assert run(batch) == [i for i, kept in enumerate(keep) if kept], name
        candidates = sorted(rng.sample(range(len(rows)), len(rows) // 2))
        assert run(batch, candidates) == [i for i in candidates if keep[i]], name
        assert run(batch, []) == [], name


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

    With ``partition_by``, ``t`` is stored as (uncompressed) shards, so its
    scans take the partitioned path and every filter conjunct runs as the
    shard's residual through the batch compiler.
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


#: Queries spanning what the batch compiler must agree on with the row
#: oracle, over plain tables and over shards: arithmetic, LIKE/IN/BETWEEN/NULL
#: filters, division and modulo by zero, CASE, a residual over two columns,
#: joins with fan-out, star output, grouping, DISTINCT and ORDER BY + LIMIT
#: over ties.
QUERIES = [
    "SELECT t.id, t.v FROM t WHERE (t.v * 2 - 1) % 3 = 0 AND t.id / 2 >= 10",
    "SELECT t.id FROM t WHERE t.s LIKE 'a%' OR t.v IN (1, 2, 3) OR t.v IS NULL",
    "SELECT t.id FROM t WHERE NOT (t.v BETWEEN 2 AND 5) AND t.s IS NOT NULL",
    "SELECT t.id FROM t WHERE t.v / 0 IS NULL ORDER BY t.id LIMIT 10",
    "SELECT t.id FROM t WHERE t.v / 0 IS NULL AND t.v % 0 IS NULL "
    "ORDER BY t.id LIMIT 10",
    "SELECT count(*) AS n FROM t WHERE CASE WHEN t.v > 2 THEN 1 ELSE 0 END = 1",
    "SELECT t.id FROM t WHERE t.v < t.id / 10",
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
    """The shard residual keeps exactly the rows a plain scan keeps."""
    plain = build_db()
    sharded = build_db(partition_by=RANGE_SHARDS)
    assert sharded.catalog.table("t").num_partitions > 1
    expected = plain.run(sql).rows
    got = sharded.run(sql).rows
    if "ORDER BY" in sql:
        assert list(got) == list(expected)
    else:
        assert Counter(got) == Counter(expected)


def test_scan_filters_in_one_batch_conjunction_match_the_serial_scan():
    """A scan's filters compiled as one conjunction keep the serial scan's rows."""
    db = build_db()
    planned = db.plan(QUERIES[1])
    scan = next(
        node for node in planned.plan.walk() if isinstance(node, ScanNode) and node.filters
    )
    table = db.catalog.table(scan.table)
    data = table.column_data()
    batch = ColumnBatch(
        [(scan.alias, name) for name in table.schema.column_names],
        data,
        length=table.row_count,
    )
    run = compile_batch_conjunction(list(scan.filters), batch.resolver)
    expected = db.executor_for(ExecutionEngine.VECTORIZED).execute(planned.plan).result.rows
    kept = run(batch)
    assert [(data[0][i],) for i in kept] == list(expected)
    candidates = list(range(0, len(batch), 3))
    assert run(batch, candidates) == [i for i in kept if i % 3 == 0]


def test_shard_residual_keeps_every_row_under_division_and_modulo_by_zero():
    """``v / 0`` and ``v % 0`` are NULL for every row, NULL ``v`` included."""
    sql = "SELECT t.id FROM t WHERE t.v / 0 IS NULL AND t.v % 0 IS NULL"
    got = build_db(partition_by=RANGE_SHARDS).run(sql).rows
    assert len(got) == 120
    assert Counter(got) == Counter(build_db().run(sql).rows)



#: ``value BETWEEN low AND high`` operands; sqlite3 evaluates the form as
#: ``low <= value AND value <= high`` in three-valued logic, so a NULL bound
#: still yields FALSE when the other bound is violated.
BETWEEN_OPERANDS = [
    (10, None, 5), (3, None, 5), (3, 5, None), (10, 5, None), (0, 5, None),
    (3, None, None), (None, 1, 5), (3, 1, 5), (0, 1, 5), (3, 5, 1),
]


def _sql_literal(value) -> str:
    return "NULL" if value is None else repr(value)


@pytest.mark.parametrize("negated", [False, True], ids=["between", "not-between"])
@pytest.mark.parametrize("value,low,high", BETWEEN_OPERANDS)
def test_between_with_null_bounds_matches_sqlite(value, low, high, negated):
    """Kept exactly when sqlite3 says TRUE; the two negations together tell
    FALSE (one keeps) from NULL (neither keeps)."""
    form = f"{_sql_literal(value)} {'NOT ' if negated else ''}BETWEEN " \
        f"{_sql_literal(low)} AND {_sql_literal(high)}"
    with sqlite3.connect(":memory:") as oracle:
        expected = oracle.execute(f"SELECT {form}").fetchone()[0] == 1
    predicate = Between(N, Literal(low), Literal(high), negated=negated)
    resolver = ColumnResolver(COLUMNS)
    assert compile_predicate(predicate, resolver)((value, None)) is expected, form
    batch = ColumnBatch(COLUMNS, [[value], [None]])
    assert compile_batch_predicate(predicate, resolver)(batch, None) == (
        [0] if expected else []
    ), form


@pytest.mark.parametrize("partition_by", [None, PartitionSpec(method="range", column="id", bounds=(5,))])
@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_not_between_a_null_bound_keeps_rows_past_the_other_bound(engine, partition_by):
    db = Database()
    db.create_table(
        make_schema("t", [("id", ColumnType.INT)], primary_key="id", partition_by=partition_by)
    )
    db.load_rows("t", [(10,), (3,)])
    db.finalize_load()
    db.executor = db.executor_for(engine)
    assert db.run("SELECT t.id FROM t WHERE t.id NOT BETWEEN NULL AND 5").rows == [(10,)]
    assert db.run("SELECT t.id FROM t WHERE t.id BETWEEN NULL AND 5").rows == []
