"""Bulk storage paths against frozen copies of the per-row code they replace.

``encode_segment`` costs its codecs from counts and builds only the winner,
``HashIndex`` keeps row lists only for keys that repeat, and
``Database.load_rows`` transposes and routes rows in whole-column passes.
The oracle here is the earlier per-row implementation of each, frozen
verbatim: over seeded columns of every type and shape, at lengths around a
statistics block, the codec choice, runs, dictionary, codes, block
statistics, decoded values, index answers and loaded partitions must be
equal.  Two inputs differ on purpose — a bool stored in an INT column and
both signs of zero in a FLOAT column, which the per-row codecs merged — and
must now round-trip exactly.  Block statistics differ on purpose too: a
block holding a NaN, whose per-row extremes bound nothing, has none.  A last group guards that none of the three
paths allocates per row: each may trigger at most one garbage collection.
"""

from __future__ import annotations

import gc
import random
from collections import Counter

import pytest

from repro.catalog.schema import ColumnType, PartitionSpec, make_schema
from repro.engine import Database, ExecutionEngine
from repro.engine.settings import EngineSettings
from repro.errors import StorageError
from repro.storage import HashIndex, Table
from repro.storage.compression import BLOCK_ROWS, encode_segment
from repro.storage.partition import ColumnZone

LENGTHS = (0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 20_000)
CODECS = ("auto", "plain", "dictionary", "rle")
SHAPES = ("null_heavy", "all_null", "all_distinct", "sorted_runs", "alternating", "nan")
KINDS = {
    ColumnType.INT: lambda i: i * 7 - 3000,
    ColumnType.FLOAT: lambda i: i * 0.5 - 100.25,
    ColumnType.TEXT: lambda i: f"v{i:06d}",
}
CASES = [
    (kind, shape)
    for kind in KINDS
    for shape in SHAPES
    if shape != "nan" or kind is ColumnType.FLOAT
]
SHARED_NAN = float("nan")


# -- frozen per-row implementations (the oracle) --------------------------------


class _FrozenPlain:
    codec = "plain"

    def __init__(self, values):
        self._values = list(values)

    def values(self):
        return self._values


class _FrozenDictionary:
    codec = "dictionary"

    def __init__(self, values):
        dictionary = []
        code_of = {}
        codes = []
        for value in values:
            code = code_of.get(value)
            if code is None:
                code = code_of[value] = len(dictionary)
                dictionary.append(value)
            codes.append(code)
        self.dictionary = dictionary
        self.codes = codes

    def values(self):
        return [self.dictionary[code] for code in self.codes]

    def encoded_cells(self):
        return len(self.dictionary) + (len(self.codes) + 3) // 4


class _FrozenRLE:
    codec = "rle"

    def __init__(self, values):
        runs = []
        for value in values:
            if runs and runs[-1][0] == value and type(runs[-1][0]) is type(value):
                runs[-1] = (value, runs[-1][1] + 1)
            else:
                runs.append((value, 1))
        self.runs = runs

    def values(self):
        decoded = []
        for value, count in self.runs:
            decoded.extend([value] * count)
        return decoded

    def encoded_cells(self):
        return 2 * len(self.runs)


def _frozen_block_stats(values):
    stats = []
    for start in range(0, len(values), BLOCK_ROWS):
        block = values[start : start + BLOCK_ROWS]
        minimum = None
        maximum = None
        nulls = 0
        try:
            for value in block:
                if value is None:
                    nulls += 1
                    continue
                if minimum is None or value < minimum:
                    minimum = value
                if maximum is None or value > maximum:
                    maximum = value
        except TypeError:
            stats.append(None)
            continue
        stats.append((minimum, maximum, nulls))
    return stats


def _frozen_encode_segment(values, codec="auto"):
    values = list(values)
    if codec == "plain":
        segment = _FrozenPlain(values)
    elif codec == "dictionary":
        segment = _FrozenDictionary(values)
    elif codec == "rle":
        segment = _FrozenRLE(values)
    elif not values:
        segment = _FrozenPlain(values)
    else:
        candidates = [_FrozenRLE(values), _FrozenDictionary(values)]
        best = min(candidates, key=lambda candidate: candidate.encoded_cells())
        segment = best if best.encoded_cells() < len(values) else _FrozenPlain(values)
    return segment, _frozen_block_stats(values)


def _frozen_buckets(values):
    buckets = {}
    for row_id, value in enumerate(values):
        if value is None:
            continue
        buckets.setdefault(value, []).append(row_id)
    return buckets


def _frozen_load_columns(table, rows):
    width = len(table.schema.columns)
    columns = [[] for _ in range(width)]
    for row in rows:
        if isinstance(row, dict):
            names = table.schema.column_names
            unknown = set(row) - set(names)
            if unknown:
                raise StorageError(
                    f"unknown columns {sorted(unknown)} for table {table.name!r}"
                )
            row = [row.get(name) for name in names]
        elif len(row) != width:
            raise StorageError(
                f"table {table.name!r} expects {width} values, got {len(row)}"
            )
        for position, value in enumerate(row):
            columns[position].append(value)
    return columns


# -- helpers --------------------------------------------------------------------


def typed(values):
    """Values with their type and sign of zero visible (NaN as its repr)."""
    return [(type(v), repr(v)) for v in values]


def _without_nan_blocks(values, stats):
    """``stats`` with the synopsis of every block holding a NaN voided."""
    return [
        None if any(v != v for v in values[block * BLOCK_ROWS : (block + 1) * BLOCK_ROWS])
        else entry
        for block, entry in enumerate(stats)
    ]


def typed_stats(stats):
    return [None if s is None else (*typed(s[:2]), s[2]) for s in stats]


def column(kind, shape, length, seed=0):
    rng = random.Random(f"{kind.value}/{shape}/{length}/{seed}")
    value = KINDS[kind]
    if shape == "null_heavy":
        return [None if rng.random() < 0.8 else value(rng.randrange(50)) for _ in range(length)]
    if shape == "all_null":
        return [None] * length
    if shape == "all_distinct":
        values = [value(i) for i in range(length)]
        rng.shuffle(values)
        return values
    if shape == "sorted_runs":
        keys = sorted(rng.randrange(max(1, length // 100)) for _ in range(length))
        return [None if key % 11 == 5 else value(key) for key in keys]
    if shape == "alternating":
        return [value(i % 2) for i in range(length)]
    # NaN: one shared object repeated, fresh NaN objects, numbers and NULLs.
    choices = [SHARED_NAN, None, value(1), value(2)]
    return [
        float("nan") if rng.random() < 0.2 else rng.choice(choices) for _ in range(length)
    ]


# -- segments -------------------------------------------------------------------


@pytest.mark.parametrize("kind, shape", CASES)
def test_segments_equal_the_per_row_codecs(kind, shape):
    for length in LENGTHS:
        values = column(kind, shape, length)
        for codec in CODECS:
            segment = encode_segment(values, codec)
            frozen, frozen_stats = _frozen_encode_segment(values, codec)
            where = f"{length} rows, codec={codec}"
            assert segment.codec == frozen.codec, where
            assert len(segment) == length, where
            if frozen.codec == "rle":
                assert [(typed([v])[0], n) for v, n in segment.runs] == [
                    (typed([v])[0], n) for v, n in frozen.runs
                ], where
            if frozen.codec == "dictionary":
                assert typed(segment.dictionary) == typed(frozen.dictionary), where
                assert segment.codes == frozen.codes, where
            assert typed_stats(segment.block_stats()) == typed_stats(
                _without_nan_blocks(values, frozen_stats)
            ), where
            assert typed(segment.values()) == typed(frozen.values()), where


def test_tie_breaks_rle_first_and_plain_unless_smaller():
    # 4 rows, 2 runs: RLE 4 cells, dictionary 2 + 1 = 3 cells -> dictionary.
    assert encode_segment([1, 1, 2, 2]).codec == "dictionary"
    # 8 rows, 2 runs: RLE 4 cells, dictionary 2 + 2 = 4 cells -> RLE on a tie.
    assert encode_segment([1] * 4 + [2] * 4).codec == "rle"
    # 2 rows, 1 run: RLE 2 cells is not smaller than 2 plain cells.
    assert encode_segment(["a", "a"]).codec == "plain"


MIXED = {
    "bool_in_int": lambda rng: rng.choice([True, False, 1, 0, 2, None]),
    "signed_zeros": lambda rng: rng.choice([0.0, -0.0, 1.5, None]),
    "zeros_and_nan": lambda rng: rng.choice([0.0, -0.0, SHARED_NAN, float("nan")]),
    "int_float_bool": lambda rng: rng.choice([1, 1.0, True, 0, 0.0, -0.0, False]),
}


@pytest.mark.parametrize("name", sorted(MIXED))
def test_equal_values_of_another_type_or_sign_round_trip_exactly(name):
    for length in (1, 2, 7, BLOCK_ROWS + 1, 5000):
        rng = random.Random(f"{name}/{length}")
        for values in (
            [MIXED[name](rng) for _ in range(length)],
            # Clustered: long runs of equal values that differ in type or sign.
            sorted((MIXED[name](rng) for _ in range(length)), key=repr),
        ):
            for codec in CODECS:
                decoded = encode_segment(values, codec).values()
                assert typed(decoded) == typed(values), f"{length} rows, codec={codec}"


@pytest.mark.parametrize(
    "engine", [ExecutionEngine.VECTORIZED, ExecutionEngine.REFERENCE]
)
def test_compress_does_not_change_query_results(engine):
    db = Database(EngineSettings(engine=engine))
    db.create_table(
        make_schema(
            "t",
            [("k", ColumnType.INT), ("b", ColumnType.INT), ("f", ColumnType.FLOAT)],
            partition_by=PartitionSpec(method="range", column="k", bounds=(4, 100)),
        )
    )
    db.load_rows("t", [(i, True if i % 2 else 1, 0.0 if i < 3 else -0.0) for i in range(12)])
    db.finalize_load()
    queries = [
        "SELECT t.k, t.b FROM t AS t WHERE t.k < 4",
        "SELECT min(t.f) AS lo, max(t.f) AS hi FROM t AS t",
        "SELECT t.k, t.f FROM t AS t WHERE t.k > 1",
    ]
    before = [[typed(row) for row in db.run(sql).rows] for sql in queries]
    assert before[0][1] == typed((1, True))
    assert before[1] == [typed((0.0, 0.0))]
    db.catalog.table("t").compress()
    assert [[typed(row) for row in db.run(sql).rows] for sql in queries] == before


# -- hash index -----------------------------------------------------------------


@pytest.mark.parametrize("kind, shape", CASES)
def test_hash_index_answers_like_per_key_row_lists(kind, shape):
    for length in LENGTHS:
        values = column(kind, shape, length)
        table = Table(make_schema("t", [("c", kind)]))
        table.load_columns([values])
        index = HashIndex(table, "c")
        buckets = _frozen_buckets(values)
        for key in [*dict.fromkeys(values), None, KINDS[kind](10**6)]:
            expected = [] if key is None else buckets.get(key, [])
            assert index.lookup(key) == expected, f"{length} rows, key {key!r}"
        assert len(index) == sum(map(len, buckets.values()))
        assert index.distinct_keys() == len(buckets)


def test_hash_index_merges_equal_keys_of_another_type():
    table = Table(make_schema("t", [("c", ColumnType.INT)]))
    table.load_columns([[1, True, 2, None, 3]])
    index = HashIndex(table, "c")
    assert index.lookup(1) == index.lookup(True) == [0, 1]
    assert index.lookup(1.0) == [0, 1]
    assert (len(index), index.distinct_keys()) == (4, 3)


# -- bulk load ------------------------------------------------------------------

LOAD_COLUMNS = [
    ("id", ColumnType.INT),
    ("label", ColumnType.TEXT),
    ("score", ColumnType.FLOAT),
    ("flag", ColumnType.INT),
]
LAYOUTS = {
    "range": PartitionSpec(method="range", column="id", bounds=(100, 2000, 5000)),
    "hash": PartitionSpec(method="hash", column="flag", partitions=3),
}


def _load_table(layout):
    return make_schema("t", LOAD_COLUMNS, partition_by=LAYOUTS[layout])


def _partitions(table):
    return [
        (
            [typed(values) for values in partition.column_data()],
            partition.zone_map.row_count,
            {
                name: (typed([zone.minimum, zone.maximum]), zone.null_count)
                for name, zone in partition.zone_map.columns.items()
            },
        )
        for partition in table.partitions()
    ]


def _load_rows(order, rng, count=6000):
    ids = list(range(count))
    if order == "shuffled":
        rng.shuffle(ids)
    rows = [
        (
            None if order == "null_keys" and i % 13 == 0 else i,
            rng.choice(["a", "b", None]),
            rng.choice([None, rng.random(), 0.0, -0.0]),
            rng.choice([None, True, rng.randrange(4), str(rng.randrange(4))]),
        )
        for i in ids
    ]
    # Dict rows and lists ride along in schema order.
    rows[5] = dict(zip(("id", "label", "score"), rows[5]))
    rows[6] = list(rows[6])
    return rows


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("order", ["sorted", "shuffled", "null_keys"])
def test_load_rows_equals_row_by_row_inserts(layout, order):
    rows = _load_rows(order, random.Random(f"{layout}/{order}"))
    db = Database()
    loaded = db.create_table(_load_table(layout))
    assert db.load_rows("t", rows) == len(rows)
    oracle = Table(_load_table(layout))
    assert oracle.load_columns(_frozen_load_columns(oracle, rows)) == len(rows)
    assert _partitions(loaded) == _partitions(oracle)


@pytest.mark.parametrize(
    "rows",
    [
        [(1, "a", 0.5, 1), (2, "b", 0.5)],
        [(1, "a", 0.5, 1), {"id": 2, "oops": 1}, (3, "c")],
        [(1, "a", 0.5, 1)] * 5000 + [(1, "a")],
        [(1, "a", 0.5, 1), 7],
    ],
)
def test_load_rows_rejects_like_the_row_loop(rows):
    db = Database()
    table = db.create_table(_load_table("range"))
    with pytest.raises(Exception) as expected:
        _frozen_load_columns(table, rows)
    with pytest.raises(type(expected.value)) as raised:
        db.load_rows("t", iter(rows))
    assert str(raised.value) == str(expected.value)
    assert table.row_count == 0


def _frozen_note(zone, value):
    """The per-value fold into running extremes that zones once took."""
    if value is None:
        zone.null_count += 1
        return
    if isinstance(value, float) and value != value:
        zone.has_nan = True
    if zone.minimum is None or value < zone.minimum:
        zone.minimum = value
    if zone.maximum is None or value > zone.maximum:
        zone.maximum = value


def test_zone_folds_equal_per_value_notes():
    # The zone of the counts equals the per-value fold: with NaN and signed
    # zeros the fold order shows.
    rng = random.Random(3)
    pool = [None, SHARED_NAN, 0.0, -0.0, 1.5, -2.0]
    for _ in range(500):
        values = [rng.choice(pool) for _ in range(rng.randrange(12))]
        folded, noted = ColumnZone.from_counts(Counter(values)), ColumnZone()
        for value in values:
            _frozen_note(noted, value)
        assert typed([folded.minimum, folded.maximum]) == typed([noted.minimum, noted.maximum])
        assert folded.null_count == noted.null_count
        assert folded.has_nan == noted.has_nan == (SHARED_NAN in values)


def test_range_routing_keeps_the_row_path_for_unroutable_keys():
    table = Table(
        make_schema(
            "t",
            [("k", ColumnType.TEXT), ("v", ColumnType.INT)],
            partition_by=PartitionSpec(method="range", column="k", bounds=(10,)),
        )
    )
    with pytest.raises(StorageError, match="is not comparable with the range bounds"):
        table.load_columns([["a"], [1]])
    table.load_columns([[None, None], [1, 2]])
    assert [p.row_count for p in table.partitions()] == [2, 0]


# -- no garbage per row ----------------------------------------------------------


def _collections(action) -> int:
    """Garbage collections ``action()`` triggers, counted from a clean heap."""
    started = []

    def callback(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(callback)
    try:
        action()
    finally:
        gc.callbacks.remove(callback)
    return len(started)


def test_sealing_a_distinct_text_column_allocates_nothing_per_row():
    values = [f"text{i:06d}" for i in range(50_000)]
    assert _collections(lambda: encode_segment(values)) <= 1


def test_building_a_unique_hash_index_allocates_nothing_per_row():
    table = Table(make_schema("t", [("id", ColumnType.INT)], primary_key="id"))
    table.load_columns([list(range(50_000))])
    assert _collections(lambda: HashIndex(table, "id")) <= 1


def test_bulk_loading_a_range_partitioned_table_allocates_nothing_per_row():
    rows = [(i, f"s{i % 10}", i * 0.5, i % 3) for i in range(50_000)]
    db = Database()
    db.create_table(_load_table("range"))
    assert _collections(lambda: db.load_rows("t", rows)) <= 1
    assert db.catalog.table("t").row_count == 50_000
