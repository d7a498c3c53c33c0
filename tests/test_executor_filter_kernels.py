"""The one-pass leaf kernels keep exactly the rows the row compiler keeps.

Every leaf shape of :func:`compile_batch_predicate` — ``col op literal``,
``[NOT] IN``, ``[NOT] BETWEEN``, ``IS [NOT] NULL``, ``[NOT] LIKE`` — is run
over a column with no selection vector, through a selection vector, and
under a candidate list, and compared with :func:`compile_predicate` (the
oracle) row by row.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog import ColumnType, make_schema
from repro.engine import Database
from repro.executor.batch import ColumnBatch
from repro.executor.expressions import (
    ColumnResolver,
    compile_batch_conjunction,
    compile_batch_predicate,
    compile_predicate,
)
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
