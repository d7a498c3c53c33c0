"""The auto codec choice equals the rule that counts every run break.

:func:`~repro.storage.compression._cheapest_codec` stops counting run breaks
one past the most at which RLE still wins.  ``_frozen_cheapest_codec`` is the
rule it replaced, which counted them all; it is kept here as the reference.
Key lists are generated as runs, and at the boundary where the breaks equal
that most and one more.
"""

from __future__ import annotations

from operator import ne

from hypothesis import example, given
from hypothesis import strategies as st

from repro.storage.compression import _cheapest_codec, encode_segment


def _frozen_cheapest_codec(keys, distinct):
    rows = len(keys)
    cells = distinct + (rows + 3) // 4
    codec = "dictionary"
    if 2 * distinct <= cells:
        run_cells = 2 * (1 + sum(map(ne, keys, keys[1:])))
        if run_cells <= cells:
            codec, cells = "rle", run_cells
    return codec if cells < rows else "plain"


def _check(keys):
    distinct = len(dict.fromkeys(keys))
    expected = _frozen_cheapest_codec(keys, distinct)
    assert _cheapest_codec(keys, distinct) == expected
    segment = encode_segment(keys)
    assert segment.codec == expected
    assert segment.values() == keys


RUNS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=40)),
    min_size=1,
    max_size=60,
)


@given(RUNS)
@example([(0, 1)])
@example([(0, 400)])
def test_codec_choice_on_runs(runs):
    _check([value for value, length in runs for _ in range(length)])


@st.composite
def at_the_limit(draw):
    """Keys whose run breaks equal the most at which RLE wins, or one more."""
    rows = draw(st.integers(min_value=2, max_value=600))
    distinct = draw(st.integers(min_value=2, max_value=max(2, rows // 8)))
    cells = distinct + (rows + 3) // 4
    most = cells // 2 - 1
    breaks = most + draw(st.integers(min_value=0, max_value=1))
    if not (2 * distinct <= cells and distinct - 1 <= breaks <= rows - 1):
        breaks = rows - 1  # every row a run: RLE loses
    # ``breaks + 1`` runs cycling through ``distinct`` values, lengths near equal.
    runs = breaks + 1
    keys = []
    for run in range(runs):
        length = rows // runs + (run < rows % runs)
        keys += [run % distinct] * length
    assert sum(map(ne, keys, keys[1:])) == breaks
    return keys


@given(at_the_limit())
@example([0] * 100 + [1] * 100)
def test_codec_choice_at_the_break_limit(keys):
    _check(keys)


def test_the_limit_is_reached_from_both_sides():
    # 64 rows, 2 values: 18 dictionary cells, RLE wins with up to 8 breaks.
    for breaks, codec in ((8, "rle"), (9, "dictionary")):
        keys = [run % 2 for run in range(breaks + 1) for _ in range(64 // (breaks + 1))]
        keys += [keys[-1]] * (64 - len(keys))
        assert sum(map(ne, keys, keys[1:])) == breaks
        assert _cheapest_codec(keys, 2) == _frozen_cheapest_codec(keys, 2) == codec
