"""Sort and grouped-aggregate kernels: vectorized engine against the oracle.

The vectorized ``sort_result`` sorts on C-level keys (one pass per key, NULL
rows split off) and ``group_aggregate_result`` groups with one ``Counter``
pass; the reference engine sorts with a comparator and groups row lists.
Every case compares the two on rows *and* row order, by ``repr`` so that
``0.0``/``-0.0`` and ``1``/``True`` count as different outputs.
"""

from __future__ import annotations

import pytest

from repro.catalog import ColumnType, make_schema
from repro.engine import Database, ExecutionEngine
from repro.executor import operators, reference
from repro.executor.batch import ColumnBatch
from repro.executor.reference import ResultSet
from repro.sql.ast import AggregateFunc, Column, ColumnRef, SelectItem
from repro.sql.binder import BoundSortKey

COLUMNS = [("t", "id"), ("t", "a"), ("t", "b"), ("t", "c")]

# ``a``: ints with NULLs; ``b``: floats with signed zeros and NULLs;
# ``c``: ints and bools that compare equal (1 == True, 0 == False).
ROWS = [
    (0, 3, 0.0, 1),
    (1, None, -0.0, True),
    (2, 1, None, 0),
    (3, 3, -0.0, True),
    (4, None, 2.5, False),
    (5, 1, 0.0, 1),
    (6, 2, None, True),
    (7, 3, 2.5, 0),
    (8, None, -0.0, 1),
    (9, 2, 0.0, False),
]


def _sorted_both(rows, keys, tie_break=(), tie_break_all=False):
    vectorized = operators.sort_result(
        ColumnBatch.from_rows(COLUMNS, rows), keys, tie_break, tie_break_all
    ).rows
    oracle = reference.sort_result(
        ResultSet(COLUMNS, list(rows)), keys, tie_break, tie_break_all
    ).rows
    assert repr(vectorized) == repr(oracle)
    return vectorized


def _key(column: str, ascending: bool = True) -> BoundSortKey:
    return BoundSortKey(alias="t", column=column, ascending=ascending)


def _ids(rows):
    return [row[0] for row in rows]


class TestSort:
    @pytest.mark.parametrize("ascending", [True, False])
    @pytest.mark.parametrize("column", ["a", "b", "c"])
    def test_one_key_places_nulls_and_keeps_ties_in_input_order(self, column, ascending):
        _sorted_both(ROWS, [_key(column, ascending)])

    def test_nulls_last_ascending_first_descending(self):
        assert _ids(_sorted_both(ROWS, [_key("a")])) == [2, 5, 6, 9, 0, 3, 7, 1, 4, 8]
        assert _ids(_sorted_both(ROWS, [_key("a", False)])) == [1, 4, 8, 0, 3, 7, 6, 9, 2, 5]

    def test_signed_zeros_and_int_bool_ties_keep_input_order(self):
        # b: 0.0 (0, 5, 9) and -0.0 (1, 3, 8) are one tie class in input order.
        assert _ids(_sorted_both(ROWS, [_key("b")])) == [0, 1, 3, 5, 8, 9, 4, 7, 2, 6]
        assert _ids(_sorted_both(ROWS, [_key("b", False)])) == [2, 6, 4, 7, 0, 1, 3, 5, 8, 9]
        # c: 0/False (2, 4, 7, 9) and 1/True (0, 1, 3, 5, 6, 8).
        assert _ids(_sorted_both(ROWS, [_key("c")])) == [2, 4, 7, 9, 0, 1, 3, 5, 6, 8]
        assert _ids(_sorted_both(ROWS, [_key("c", False)])) == [0, 1, 3, 5, 6, 8, 2, 4, 7, 9]

    @pytest.mark.parametrize(
        "directions", [(True, True), (True, False), (False, True), (False, False)]
    )
    def test_multi_key_mixed_directions(self, directions):
        first, second = directions
        _sorted_both(ROWS, [_key("a", first), _key("b", second)])
        _sorted_both(ROWS, [_key("c", first), _key("a", second), _key("b", first)])

    def test_tie_break_expressions_order_rows_below_the_keys(self):
        tie = (Column(ColumnRef("t", "b")), Column(ColumnRef("t", "id")))
        rows = _sorted_both(ROWS, [_key("c", False)], tie_break=tie)
        # 0.0 and -0.0 tie on b, so id orders them.
        assert _ids(rows) == [0, 1, 3, 5, 8, 6, 9, 4, 7, 2]

    def test_tie_break_all_orders_by_every_column(self):
        reversed_rows = list(reversed(ROWS))
        rows = _sorted_both(reversed_rows, [_key("a", False)], tie_break_all=True)
        assert _ids(rows) == [1, 4, 8, 0, 3, 7, 6, 9, 2, 5]

    def test_all_null_and_empty_columns(self):
        nulls = [(i, None, None, None) for i in range(4)]
        assert _ids(_sorted_both(nulls, [_key("a"), _key("b", False)])) == [0, 1, 2, 3]
        assert _sorted_both([], [_key("a", False)]) == []


def _item(column: str, aggregate=None, name=None) -> SelectItem:
    return SelectItem(
        Column(ColumnRef("t", column)), aggregate=aggregate, output_name=name or column
    )


COUNT_STAR = SelectItem(None, aggregate=AggregateFunc.COUNT, output_name="n")


def _grouped_both(rows, keys, items):
    group_keys = [ColumnRef("t", column) for column in keys]
    vectorized = operators.group_aggregate_result(
        ColumnBatch.from_rows(COLUMNS, rows), group_keys, items
    )
    oracle = reference.group_aggregate_result(
        ResultSet(COLUMNS, list(rows)), group_keys, items
    )
    assert vectorized.columns == oracle.columns
    assert repr(vectorized.rows) == repr(oracle.rows)
    return vectorized.rows


class TestGroup:
    def test_count_star_alone(self):
        assert _grouped_both(ROWS, ["a"], [COUNT_STAR]) == [(3,), (3,), (2,), (2,)]

    def test_null_key_forms_one_group_in_first_appearance_order(self):
        rows = _grouped_both(ROWS, ["a"], [_item("a"), COUNT_STAR])
        assert rows == [(3, 3), (None, 3), (1, 2), (2, 2)]

    def test_group_key_keeps_the_first_of_equal_keys(self):
        rows = _grouped_both(ROWS, ["b"], [_item("b"), COUNT_STAR])
        assert repr(rows) == "[(0.0, 6), (None, 2), (2.5, 2)]"
        rows = _grouped_both(ROWS, ["c"], [COUNT_STAR, _item("c")])
        assert repr(rows) == "[(6, 1), (4, 0)]"

    def test_composite_keys_with_nulls(self):
        items = [_item("c"), _item("a"), COUNT_STAR, _item("b", AggregateFunc.SUM, "s")]
        rows = _grouped_both(ROWS, ["a", "c"], items)
        assert repr(rows[:2]) == "[(1, 3, 2, 0.0), (True, None, 2, -0.0)]"

    def test_non_key_item_reads_the_group_first_row(self):
        # The first_row path: a non-aggregate item that is not a group key.
        rows = _grouped_both(ROWS, ["a"], [_item("a"), _item("c"), _item("b")])
        assert repr(rows) == "[(3, 1, 0.0), (None, True, -0.0), (1, 0, None), (2, True, None)]"
        rows = _grouped_both(ROWS, ["a", "b"], [_item("c"), COUNT_STAR])
        assert repr(rows[:3]) == "[(1, 2), (True, 2), (0, 1)]"

    @pytest.mark.parametrize("keys", [["a"], ["b"], ["c"], ["a", "b"], ["b", "c", "a"]])
    def test_count_star_beside_every_fold(self, keys):
        items = [COUNT_STAR, _item(keys[0])]
        for column in ("a", "b", "c"):
            for aggregate in AggregateFunc:
                items.append(_item(column, aggregate, f"{aggregate.name}_{column}"))
        _grouped_both(ROWS, keys, items)

    def test_empty_input_has_no_groups(self):
        items = [_item("a"), COUNT_STAR, _item("b", AggregateFunc.AVG, "avg_b")]
        assert _grouped_both([], ["a"], items) == []
        assert _grouped_both([], ["a", "b"], items) == []


@pytest.fixture(scope="module")
def db() -> Database:
    db = Database()
    db.create_table(
        make_schema(
            "t",
            [
                ("id", ColumnType.INT),
                ("a", ColumnType.INT),
                ("b", ColumnType.FLOAT),
                ("c", ColumnType.INT),
            ],
            primary_key="id",
        )
    )
    db.load_rows("t", [(i, a, b, int(c)) for i, a, b, c in ROWS])
    db.finalize_load()
    return db


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT t.a + 1 AS a1, count(*) AS n FROM t GROUP BY t.a",
        "SELECT t.a * 2 AS a2, t.c AS c, max(t.b) AS hi, count(t.b) AS nb "
        "FROM t GROUP BY t.a, t.c",
        "SELECT t.b AS b, count(*) AS n, avg(t.a) AS m FROM t GROUP BY t.b",
        "SELECT t.a AS a, count(*) AS n FROM t WHERE t.id > 100 GROUP BY t.a",
        "SELECT t.a AS a, count(*) AS n FROM t GROUP BY t.a ORDER BY n DESC, a LIMIT 2",
        "SELECT t.b AS b, t.id AS id FROM t ORDER BY b DESC LIMIT 4",
        "SELECT t.a AS a, t.b AS b FROM t ORDER BY t.a, t.b DESC LIMIT 5",
        "SELECT * FROM t ORDER BY t.c DESC, t.a LIMIT 3",
        "SELECT t.c AS c, t.b AS b FROM t ORDER BY c LIMIT 6 OFFSET 2",
    ],
)
def test_statements_agree_through_both_engines(db, sql):
    planned = db.plan(sql)
    vectorized = db.executor.execute(planned.plan)
    oracle = db.executor_for(ExecutionEngine.REFERENCE).execute(planned.plan)
    assert vectorized.total_work == oracle.total_work
    assert repr(vectorized.result.rows) == repr(oracle.result.rows)
