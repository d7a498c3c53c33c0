"""Partitioned columnar storage: routing, row ids, compression, zone maps."""

from __future__ import annotations

import pytest

from repro.catalog.schema import ColumnType, PartitionSpec, make_schema
from repro.errors import CatalogError, StorageError
from repro.storage.compression import (
    DictionarySegment,
    PlainSegment,
    RLESegment,
    encode_segment,
)
from repro.storage.partition import stable_hash
from repro.storage.snapshot import SnapshotTable
from repro.storage.table import Table


def range_schema():
    return make_schema(
        "events",
        [("id", ColumnType.INT), ("kind", ColumnType.TEXT), ("score", ColumnType.FLOAT)],
        primary_key="id",
        partition_by=PartitionSpec(method="range", column="id", bounds=(10, 20)),
    )


def hash_schema(partitions: int = 4):
    return make_schema(
        "records",
        [("id", ColumnType.INT), ("gid", ColumnType.INT), ("label", ColumnType.TEXT)],
        primary_key="id",
        partition_by=PartitionSpec(method="hash", column="gid", partitions=partitions),
    )


# -- partition specs ---------------------------------------------------------


def test_partition_spec_validation():
    with pytest.raises(CatalogError):
        PartitionSpec(method="round-robin", column="id", partitions=2)
    with pytest.raises(CatalogError):
        PartitionSpec(method="hash", column="id", partitions=0)
    with pytest.raises(CatalogError):
        PartitionSpec(method="hash", column="id", partitions=2, bounds=(1,))
    with pytest.raises(CatalogError):
        PartitionSpec(method="range", column="id")
    with pytest.raises(CatalogError):
        PartitionSpec(method="range", column="id", bounds=(5, 5))
    assert PartitionSpec(method="hash", column="id", partitions=3).num_partitions == 3
    assert PartitionSpec(method="range", column="id", bounds=(1, 9)).num_partitions == 3


def test_schema_rejects_unknown_partition_key():
    with pytest.raises(CatalogError):
        make_schema(
            "t",
            [("id", ColumnType.INT)],
            partition_by=PartitionSpec(method="hash", column="nope", partitions=2),
        )


def test_a_table_without_a_spec_is_one_unrouted_shard_without_zone_maps():
    table = Table(make_schema("t", [("id", ColumnType.INT)]))
    table.insert_rows([(3,), (None,), (1,)])
    assert table.num_partitions == 1
    assert table.zone_map(0) is None
    table.refresh_zone_maps()
    assert table.zone_map(0) is None
    assert table.column_data() == [[3, None, 1]]


# -- routing -----------------------------------------------------------------


def test_range_routing_uses_inclusive_lower_bounds():
    table = Table(range_schema())
    assert table.route(None) == 0  # NULL keys always land in partition 0
    assert table.route(9) == 0
    assert table.route(10) == 1  # bounds are inclusive lower bounds
    assert table.route(19) == 1
    assert table.route(20) == 2
    assert table.route(1000) == 2


def test_hash_routing_is_stable_and_null_safe():
    table = Table(hash_schema(partitions=4))
    assert table.route(None) == 0
    for key in (0, 1, 7, 12345):
        assert table.route(key) == stable_hash(key) % 4
    # stable_hash must not depend on per-process str hash randomization.
    assert stable_hash("abc") == stable_hash("abc")
    assert stable_hash(True) == stable_hash(1)


def test_range_routing_rejects_uncomparable_keys():
    table = Table(range_schema())
    with pytest.raises(StorageError):
        table.route("not-an-int-bound")


# -- loading and global row ids ----------------------------------------------


def test_rows_gather_in_partition_order():
    table = Table(range_schema())
    # Insert out of partition order on purpose.
    rows = [(25, "c", 1.0), (5, "a", 2.0), (15, "b", 3.0), (7, "a", 4.0)]
    table.insert_rows(rows)
    # Partition 0: ids 5, 7; partition 1: id 15; partition 2: id 25.
    gathered_ids = table.column_values("id")
    assert gathered_ids == [5, 7, 15, 25]
    assert [table.row(i) for i in table.iter_row_ids()] == list(table.iter_rows())
    assert table.row(2) == (15, "b", 3.0)
    assert table.row(3)[1] == "c"
    assert table.row_count == len(table) == 4
    with pytest.raises(StorageError):
        table.row(4)


def test_insert_row_returns_gather_order_row_id():
    table = Table(range_schema())
    assert table.insert_row((15, "b", 1.0)) == 0
    # A row routed into an earlier partition lands *before* the first one.
    assert table.insert_row((5, "a", 2.0)) == 0
    assert table.column_values("id") == [5, 15]


def test_load_columns_routes_and_rolls_back_atomically():
    table = Table(range_schema())
    table.load_columns([[5, 15], ["a", "b"], [1.0, 2.0]])
    assert table.row_count == 2
    with pytest.raises(CatalogError):
        # Second row's id cannot coerce to INT: the whole batch rolls back.
        table.load_columns([[25, "oops"], ["c", "d"], [3.0, 4.0]])
    assert table.row_count == 2
    assert table.column_values("id") == [5, 15]
    assert [p.row_count for p in table.partitions()] == [1, 1, 0]
    with pytest.raises(StorageError):
        table.load_columns([[1], ["a"]])  # wrong column count
    with pytest.raises(StorageError):
        table.load_columns([[1, 2], ["a"], [0.5, 0.5]])  # ragged


def test_insert_dicts_and_coercion():
    table = Table(range_schema())
    table.insert_dicts([{"id": 15, "kind": "b"}, {"id": "5", "score": 7}])
    assert table.column_values("id") == [5, 15]  # "5" coerced to int
    assert table.column_values("score") == [7.0, None]
    with pytest.raises(StorageError):
        table.insert_dicts([{"id": 1, "bogus": 2}])


# -- the column_values aliasing regression -----------------------------------


def test_table_column_values_returns_a_copy():
    table = Table(make_schema("t", [("id", ColumnType.INT)]))
    table.insert_rows([(1,), (2,)])
    leaked = table.column_values("id")
    leaked.append(999)
    leaked[0] = -1
    assert table.column_values("id") == [1, 2]
    assert table.row_count == 2


def test_partitioned_column_values_returns_a_copy():
    table = Table(range_schema())
    table.insert_rows([(5, "a", 1.0), (15, "b", 2.0)])
    leaked = table.column_values("id")
    leaked.clear()
    assert table.column_values("id") == [5, 15]


# -- compression -------------------------------------------------------------


def test_encode_segment_picks_the_smaller_codec():
    runs = [1] * 50 + [2] * 50
    assert isinstance(encode_segment(runs), RLESegment)
    low_cardinality = [f"s{i % 3}" for i in range(100)]
    seg = encode_segment(low_cardinality)
    assert isinstance(seg, DictionarySegment)
    assert len(seg.dictionary) == 3
    incompressible = list(range(100))
    assert isinstance(encode_segment(incompressible), PlainSegment)
    assert isinstance(encode_segment([]), PlainSegment)
    for source in (runs, low_cardinality, incompressible):
        assert encode_segment(source).values() == source


def test_explicit_codecs_and_unknown_codec():
    values = [1, 1, 2]
    assert isinstance(encode_segment(values, codec="rle"), RLESegment)
    assert isinstance(encode_segment(values, codec="dictionary"), DictionarySegment)
    assert isinstance(encode_segment(values, codec="plain"), PlainSegment)
    with pytest.raises(ValueError):
        encode_segment(values, codec="lz4")


def test_rle_never_merges_equal_values_of_different_types():
    # 1 == 1.0 == True in Python; a run-length codec must keep them distinct
    # or decoding changes the stored types.
    mixed = [1, 1.0, True, 1, None, None]
    seg = encode_segment(mixed, codec="rle")
    decoded = seg.values()
    assert decoded == mixed
    assert [type(v) for v in decoded] == [type(v) for v in mixed]


def test_partition_compress_round_trip_and_reopen_on_write():
    table = Table(range_schema())
    table.insert_rows([(i, f"k{i % 2}", float(i % 3)) for i in range(30)])
    before = [table.row(i) for i in table.iter_row_ids()]
    table.compress()
    assert all(p.compressed for p in table.partitions() if p.row_count)
    assert [table.row(i) for i in table.iter_row_ids()] == before
    assert table.column_values("kind") == [r[1] for r in before]
    # Appending to a sealed shard transparently decompresses it again.
    table.insert_row((9, "z", 0.0))
    assert table.column_values("id").count(9) == 2


def test_point_reads_of_sealed_shards_decode_nothing():
    table = Table(range_schema())
    rows = [(i, f"k{i % 2}", float(i % 3)) for i in range(30)]
    table.load_columns([list(column) for column in zip(*rows)])
    table.compress()
    assert [table.row(i) for i in table.iter_row_ids()] == rows
    segments = [p.segment_at(i) for p in table.partitions() for i in range(3)]
    assert {segment.codec for segment in segments} == {"plain", "dictionary"}
    assert all(getattr(segment, "_decoded", None) is None for segment in segments)


# -- zone maps ---------------------------------------------------------------


def test_zone_maps_track_min_max_and_nulls_incrementally():
    table = Table(range_schema())
    table.insert_rows([(5, "a", None), (7, None, 2.5), (15, "b", 1.0)])
    zone = table.zone_map(0)
    assert zone.row_count == 2
    assert (zone.zone("id").minimum, zone.zone("id").maximum) == (5, 7)
    assert zone.zone("kind").null_count == 1
    assert zone.zone("score").null_count == 1
    assert zone.non_null_count("score") == 1
    # An ANALYZE-style refresh recomputes the identical synopsis.
    incremental = {
        (name, z.minimum, z.maximum, z.null_count)
        for name, z in zone.columns.items()
    }
    table.refresh_zone_maps()
    refreshed = {
        (name, z.minimum, z.maximum, z.null_count)
        for name, z in table.zone_map(0).columns.items()
    }
    assert incremental == refreshed
    # Empty partitions stay empty.
    assert table.zone_map(2).row_count == 0
    assert table.zone_map(2).zone("id").minimum is None


def test_a_bulk_append_leaves_the_zone_map_to_be_derived_on_read():
    rows = [(i, None if i % 4 else "k", float(i % 3) - 1.0) for i in range(30)]
    columns = [list(column) for column in zip(*rows)]
    table = Table(range_schema())
    table.load_columns(columns)
    shard = table.partitions()[1]
    assert shard._zone_map.row_count == 0  # left behind by the load
    snapshot = SnapshotTable(table).partitions()[1]  # recomputes while it pins
    derived = shard.zone_map
    assert derived.row_count == shard.row_count == 10
    assert repr(snapshot.zone_map) == repr(derived)
    zone = derived.zone("score")
    assert (zone.minimum, zone.maximum, zone.null_count) == (-1.0, 1.0, 0)
    assert derived.zone("kind").null_count == 8
    # ANALYZE installs the same zone maps; it reports a stale one as changed
    # without recomputing it first.
    analyzed = Table(range_schema())
    analyzed.load_columns(columns)
    assert analyzed.refresh_zone_maps()
    assert [repr(p.zone_map) for p in analyzed.partitions()] == [
        repr(p.zone_map) for p in table.partitions()
    ]
    assert not analyzed.refresh_zone_maps()
    # A sealed shard recomputes from its segments' counts, decoding none; a
    # single-row append then folds into the current zone map.
    sealed = Table(range_schema())
    sealed.load_columns(columns)
    sealed.compress()
    assert [repr(p.zone_map) for p in sealed.partitions()] == [
        repr(p.zone_map) for p in table.partitions()
    ]
    assert all(
        getattr(p.segment_at(i), "_decoded", None) is None
        for p in sealed.partitions()
        for i in range(3)
    )
    sealed.insert_row((12, "a", 7.5))
    zone_map = sealed.partitions()[1]._zone_map
    assert zone_map.row_count == 11 and zone_map.zone("score").maximum == 7.5
