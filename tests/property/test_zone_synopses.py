"""Zone synopses refute and prove soundly, checked row by row.

A zone — a shard's :class:`~repro.storage.partition.ColumnZone` or a
sealed block synopsis from
:func:`~repro.storage.compression.compute_block_stats` — summarizes one
column.  :func:`~repro.optimizer.pruning.may_match` answering ``False``
claims no row makes a conjunct TRUE; :func:`~repro.optimizer.pruning.must_match`
answering ``True`` claims every row does.  Both claims are checked against
the row evaluator (:func:`~repro.executor.expressions.compile_predicate`)
on random columns as a table stores them — one type per column: INT, FLOAT
(NaN, signed zeros, infinities) or TEXT, each with NULLs — and random NNF
conjuncts over that column.

The same typed columns, stretched over several blocks, also pin how the
synopses are taken: a shard's zone map recomputed on read after a bulk
append (from its column counts, open or sealed) equals the fold of the
values, a dictionary's block synopses taken from its codes equal those of
the values, and a sealed column's ANALYZE count equals ``Counter(values)``
down to key order and key objects — under every codec.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.catalog.schema import ColumnType, PartitionSpec, make_schema
from repro.executor.expressions import ColumnResolver, compile_predicate
from repro.optimizer.pruning import may_match, must_match
from repro.sql.ast import (
    Between,
    BoolConnective,
    BoolExpr,
    Comparison,
    ComparisonOp,
    InList,
    IsNull,
    Like,
    Literal,
    column,
)
from repro.storage.compression import BLOCK_ROWS, compute_block_stats, encode_segment
from repro.storage.partition import ColumnZone, Partition, ZoneMap

NAN = float("nan")
X = column("t", "x")

#: Non-NULL values of one column type.
TYPED_VALUES = {
    "int": st.integers(min_value=-4, max_value=4),
    "float": st.one_of(
        st.sampled_from([NAN, 0.0, -0.0, float("inf"), float("-inf"), 1.5, -2.0]),
        st.floats(min_value=-4, max_value=4, width=16),
    ),
    "text": st.sampled_from(["", "a", "ab", "b", "ba", "c%", "z"]),
}
LIKE_PATTERNS = st.sampled_from(["%", "a%", "_", "%b", "b_", "c\\%", "", "zz"])


def literal(kind: str) -> st.SearchStrategy:
    return st.one_of(st.none(), TYPED_VALUES[kind]).map(Literal)


def leaves(kind: str) -> st.SearchStrategy:
    lit = literal(kind)
    ops = st.sampled_from(list(ComparisonOp))
    shapes = [
        st.builds(lambda op, v: Comparison(op, X, v), ops, lit),
        st.builds(lambda op, v: Comparison(op, v, X), ops, lit),
        st.builds(
            lambda low, high, negated: Between(X, low, high, negated),
            lit, lit, st.booleans(),
        ),
        st.builds(
            lambda items, negated: InList(X, tuple(items), negated),
            st.lists(lit, min_size=1, max_size=3), st.booleans(),
        ),
        st.builds(lambda negated: IsNull(X, negated), st.booleans()),
        st.sampled_from([Literal(None), Literal(True), Literal(False)]),
    ]
    if kind == "text":
        shapes.append(
            st.builds(
                lambda pattern, negated: Like(X, pattern, negated),
                st.one_of(st.none(), LIKE_PATTERNS).map(Literal), st.booleans(),
            )
        )
    return st.one_of(shapes)


def conjuncts(kind: str) -> st.SearchStrategy:
    return st.recursive(
        leaves(kind),
        lambda children: st.builds(
            lambda op, operands: BoolExpr(op, tuple(operands)),
            st.sampled_from(list(BoolConnective)),
            st.lists(children, min_size=2, max_size=3),
        ),
        max_leaves=5,
    )


CASES = st.sampled_from(sorted(TYPED_VALUES)).flatmap(
    lambda kind: st.tuples(
        st.lists(st.one_of(st.none(), TYPED_VALUES[kind]), max_size=12),
        conjuncts(kind),
    )
)


def zone_maps(values):
    """The shard zone of ``values`` and, when it has one, its block synopsis."""
    zone = ColumnZone()
    zone.note_many(values)
    maps = [ZoneMap(row_count=len(values), columns={"x": zone})]
    stats = compute_block_stats(values)
    if stats and stats[0] is not None:
        maps.append(ZoneMap(row_count=len(values), columns={"x": ColumnZone(*stats[0])}))
    return maps


def verdicts(expr, values):
    keep = compile_predicate(expr, ColumnResolver((("t", "x"),)))
    return [keep((value,)) for value in values]


@given(CASES)
@example(([NAN, 5.0], Comparison(ComparisonOp.EQ, X, Literal(5.0))))
@example(([5.0, NAN], Comparison(ComparisonOp.NE, X, Literal(5.0))))
@example(([0.25], Between(X, Literal(NAN), Literal(0.5), negated=True)))
def test_may_match_false_means_no_row_is_true(case):
    values, expr = case
    for zone_map in zone_maps(values):
        if not may_match(expr, zone_map):
            assert not any(verdicts(expr, values)), (values, expr.to_sql(), zone_map)


@given(CASES)
@example(([1.0, NAN], Comparison(ComparisonOp.GE, X, Literal(0.0))))
@example(([1, None], Comparison(ComparisonOp.LT, X, Literal(10))))
@example(([1.0], Comparison(ComparisonOp.GE, X, Literal(NAN))))
def test_must_match_true_means_every_row_is_true(case):
    values, expr = case
    for zone_map in zone_maps(values):
        if must_match(expr, zone_map):
            assert all(verdicts(expr, values)), (values, expr.to_sql(), zone_map)


# -- synopses taken once -------------------------------------------------------

CODECS = ["plain", "dictionary", "rle", "auto"]
COLUMN_TYPES = {"int": ColumnType.INT, "float": ColumnType.FLOAT, "text": ColumnType.TEXT}


def _column(runs, stride):
    """Runs of one value each, dealt ``stride`` ways (short runs, mixed blocks)."""
    values = [value for value, length in runs for _ in range(length)]
    return [value for start in range(stride) for value in values[start::stride]]


#: ``(kind, column, split)``: a typed column over several blocks, and where a
#: second append starts.
LONG_COLUMNS = st.sampled_from(sorted(TYPED_VALUES)).flatmap(
    lambda kind: st.tuples(
        st.just(kind),
        st.builds(
            _column,
            st.lists(
                st.tuples(
                    st.one_of(st.none(), TYPED_VALUES[kind]),
                    st.integers(min_value=1, max_value=BLOCK_ROWS + BLOCK_ROWS // 2),
                ),
                max_size=6,
            ),
            st.integers(min_value=1, max_value=3),
        ),
        st.floats(min_value=0, max_value=1),
    )
)
ZEROS_AND_NANS = ("float", [0.0] * 1500 + [-0.0, NAN, None] * 700 + [-0.0] * 900, 0.5)


def _shard(kind):
    schema = make_schema(
        "t",
        [("x", COLUMN_TYPES[kind])],
        partition_by=PartitionSpec(method="hash", column="x", partitions=2),
    )
    return Partition(schema, 0)


def _assert_zone_of(zone, values):
    folded = ColumnZone()
    folded.note_many(values)
    assert repr(zone) == repr(folded), values[:8]
    assert repr(zone) == repr(ColumnZone.from_counts(Counter(values)))


@pytest.mark.parametrize("codec", CODECS)
@given(LONG_COLUMNS)
@example(ZEROS_AND_NANS)
def test_derived_zone_is_the_fold_of_the_values(codec, case):
    kind, values, split = case
    cut = int(len(values) * split)
    shard = _shard(kind)
    shard.append_columns([values[:cut]])
    _assert_zone_of(shard.zone_map.columns["x"], values[:cut])
    sealed = _shard(kind)
    sealed.append_columns([values[:cut]])
    sealed.compress(codec)
    assert sealed.zone_map.row_count == cut
    _assert_zone_of(sealed.zone_map.columns["x"], values[:cut])
    sealed.append_columns([values[cut:]])
    assert sealed.zone_map.row_count == len(values)
    _assert_zone_of(sealed.zone_map.columns["x"], values)


@given(LONG_COLUMNS)
@example(ZEROS_AND_NANS)
def test_dictionary_block_synopses_from_codes_are_those_of_the_values(case):
    _, values, _ = case
    segment = encode_segment(values, codec="dictionary")
    assert repr(segment.block_stats()) == repr(compute_block_stats(values))


@pytest.mark.parametrize("codec", CODECS)
@given(LONG_COLUMNS)
@example(ZEROS_AND_NANS)
def test_sealed_column_counts_are_the_counter_of_the_values(codec, case):
    kind, values, _ = case
    shard = _shard(kind)
    shard.append_columns([list(values)])
    shard.compress(codec)
    zones = {}
    counts = shard.column_counts(0, zones)
    expected = Counter(values)
    assert list(counts.items()) == list(expected.items())
    assert all(a is b for a, b in zip(counts, expected))
    assert repr(zones["x"]) == repr(ColumnZone.from_counts(expected))
    assert getattr(shard.segment_at(0), "_decoded", None) is None
