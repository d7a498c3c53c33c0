"""The C-keyed sort pass orders rows exactly as an ``(is NULL, value)`` sort.

``operators.sort_result`` sorts each key with ``values.__getitem__`` and
splits NULL rows off instead of building an ``(is None, value)`` tuple per
row.  Both are stable sorts under the same ``<``, so on any column of ints,
floats (signed zeros, infinities), bools and NULLs the permutations must
match.  NaN is left out: it has no place in a total order, so where a sort
puts it depends on which pairs the sort happens to compare, in either kernel.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.executor import operators
from repro.executor.batch import ColumnBatch
from repro.sql.binder import BoundSortKey

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.0, -0.0, 1.0, -1.5, float("inf")]),
    st.floats(allow_nan=False, width=16),
)


def _tuple_key_order(columns, directions):
    """The former kernel: one ``(is None, value)``-keyed stable pass per key."""
    order = list(range(len(columns[0])))
    for values, ascending in reversed(list(zip(columns, directions))):
        order.sort(
            key=lambda i: (values[i] is None, 0 if values[i] is None else values[i]),
            reverse=not ascending,
        )
    return order


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda width: st.tuples(
            st.lists(st.tuples(*[VALUES] * width), max_size=40),
            st.lists(st.booleans(), min_size=width, max_size=width),
        )
    )
)
def test_sort_pass_matches_the_tuple_key_sort(case):
    rows, directions = case
    width = len(directions)
    names = [("t", f"k{i}") for i in range(width)]
    columns = [[row[i] for row in rows] for i in range(width)]
    data = [list(range(len(rows)))] + columns
    batch = ColumnBatch([("t", "pos")] + names, data, length=len(rows))
    keys = [
        BoundSortKey(alias="t", column=name, ascending=ascending)
        for (_, name), ascending in zip(names, directions)
    ]
    order = operators.sort_result(batch, keys).column_values("t", "pos")
    assert order == _tuple_key_order(columns, directions)
