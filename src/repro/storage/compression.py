"""Column-segment compression codecs (dictionary and run-length encoding).

A *segment* is the sealed, immutable storage of one column within one
partition.  Sealing a partition (:meth:`~repro.storage.partition.Partition.
compress`) encodes each column's value list into the cheapest segment
encoding and drops the plain list; scans decode **lazily** — the first
:meth:`Segment.values` call materializes the decoded list once and caches
it, so a compressed partition costs one decode per scan epoch, not one per
query, and the decoded list feeds straight into a
:class:`~repro.executor.batch.ColumnBatch` exactly like plain storage.

Three codecs:

* :class:`PlainSegment` — the values verbatim (fallback, zero decode cost);
* :class:`DictionarySegment` — distinct values in first-appearance order
  plus one small code per row (wins on low-cardinality columns);
* :class:`RLESegment` — ``(value, run_length)`` pairs (wins on sorted or
  clustered columns, e.g. a range-partitioned partition key).

:func:`encode_segment` picks the codec from the data (``codec="auto"``) or
honours an explicit choice.  Auto costs both codecs from counts — the
dictionary size from one ``dict.fromkeys`` pass, the run count from one
pairwise ``!=`` pass, skipped when the distinct count alone rules RLE out and
stopped at the first run break past the count at which runs can still win —
and builds only the winner, in C-level passes that allocate nothing per row.
Encoding is exact: ``segment.values()`` round-trips the input element-for-element, NULLs
included, equal by type and by the sign of zero; a column where equal values
differ (``True``/``1``/``1.0``, ``0.0``/``-0.0``) is keyed by type, value and
sign instead of by value.  The differential fuzzer relies on this when it
serves the whole query stream from a compressed database.

Each segment seals per-:data:`BLOCK_ROWS`-block min/max/null-count synopses
at encode time — a dictionary keyed by the values themselves from each
block's distinct codes, any other segment from the input values — and
ANALYZE counts it by its codes or runs (:meth:`Segment.value_counts`).
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, islice, repeat
from math import copysign
from operator import eq, ne, sub
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.storage.column import holds_nan, value_range

__all__ = [
    "BLOCK_ROWS",
    "DictionarySegment",
    "PlainSegment",
    "RLESegment",
    "Segment",
    "encode_segment",
]

#: Rows per statistics block.  Segment-skipping refutes filters one block at
#: a time, so this is the granularity at which a scan can avoid decoding;
#: small enough that even a single mid-sized shard yields several skippable
#: units.
BLOCK_ROWS = 1024

#: Per-block synopsis: ``(minimum, maximum, null_count)`` over the block's
#: rows, with ``minimum``/``maximum`` ``None`` when the block holds no
#: non-NULL value.  A block whose values are mutually incomparable (mixed
#: types) or hold a NaN stores ``None`` instead of a tuple — "no statistics,
#: never skip".
BlockStats = Optional[Tuple[Optional[object], Optional[object], int]]


def compute_block_stats(values: Sequence[object]) -> List[BlockStats]:
    """Min/max/null-count synopses of ``values`` in :data:`BLOCK_ROWS` blocks."""
    return [
        _block_stats(values[start : start + BLOCK_ROWS])
        for start in range(0, len(values), BLOCK_ROWS)
    ]


def _block_stats(block: List[object]) -> BlockStats:
    try:
        low, high, nulls = value_range(block)
    except TypeError:
        # Incomparable mix of types: record "no stats" for the block so the
        # skipping logic conservatively keeps it.
        return None
    if holds_nan(block, low, high):
        return None  # a NaN orders with nothing: no bounds either
    return low, high, nulls


class Segment:
    """Base class: immutable encoded storage of one column's values."""

    codec = "plain"

    def __len__(self) -> int:
        raise NotImplementedError

    def values(self) -> List[object]:
        """Decoded value list (lazily materialized, then cached)."""
        raise NotImplementedError

    def gather(self, indices: Sequence[int]) -> List[object]:
        """Decoded values at the given row positions (late materialization)."""
        values = self.values()
        return [values[i] for i in indices]

    def value_counts(self) -> Counter:
        """``Counter(self.values())``: same key order, same first key objects.

        The dictionary and RLE codecs count their codes or runs, and decode
        nothing.
        """
        return Counter(self.values())

    def block_stats(self) -> List[BlockStats]:
        """Per-:data:`BLOCK_ROWS`-block min/max/null-count synopses, sealed
        at encode time (no decode)."""
        return self._block_stats


class PlainSegment(Segment):
    """Uncompressed segment: the value list verbatim.

    Keeps ``values`` itself, not a copy: :func:`encode_segment` hands it
    the copy it takes of its input, which no caller can reach.
    """

    codec = "plain"
    __slots__ = ("_values", "_block_stats")

    def __init__(self, values: List[object], block_stats: List[BlockStats]) -> None:
        self._values = values
        self._block_stats = block_stats

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> List[object]:
        return self._values


class DictionarySegment(Segment):
    """Dictionary encoding: distinct values + one code per row.

    The dictionary keeps first-appearance order so encoding is deterministic
    for a given input; NULL participates as an ordinary dictionary entry.
    """

    codec = "dictionary"
    __slots__ = ("_dictionary", "_codes", "_decoded", "_block_stats")

    def __init__(
        self, dictionary: List[object], codes: List[int], block_stats: List[BlockStats]
    ) -> None:
        self._dictionary = dictionary
        self._codes = codes
        self._decoded: Optional[List[object]] = None
        self._block_stats = block_stats

    def __len__(self) -> int:
        return len(self._codes)

    @property
    def dictionary(self) -> List[object]:
        """Distinct values in first-appearance order (read-only)."""
        return self._dictionary

    @property
    def codes(self) -> List[int]:
        """Per-row dictionary codes (read-only)."""
        return self._codes

    def values(self) -> List[object]:
        if self._decoded is None:
            dictionary = self._dictionary
            self._decoded = [dictionary[code] for code in self._codes]
        return self._decoded

    def gather(self, indices: Sequence[int]) -> List[object]:
        # Decode only the requested rows straight off the codes; a full
        # decode (and its cache) is never forced by a selective gather.
        decoded = self._decoded
        if decoded is not None:
            return [decoded[i] for i in indices]
        dictionary = self._dictionary
        codes = self._codes
        return [dictionary[codes[i]] for i in indices]

    def value_counts(self) -> Counter:
        # Codes count in first-appearance order, as their values would.
        per_code = Counter(self._codes)
        return _merged_counts(zip(map(self._dictionary.__getitem__, per_code), per_code.values()))


class RLESegment(Segment):
    """Run-length encoding: ``(value, run_length)`` pairs."""

    codec = "rle"
    __slots__ = ("_runs", "_length", "_decoded", "_block_stats")

    def __init__(
        self, runs: List[Tuple[object, int]], length: int, block_stats: List[BlockStats]
    ) -> None:
        self._runs = runs
        self._length = length
        self._decoded: Optional[List[object]] = None
        self._block_stats = block_stats

    def __len__(self) -> int:
        return self._length

    @property
    def runs(self) -> List[Tuple[object, int]]:
        """``(value, run_length)`` pairs in row order (read-only)."""
        return self._runs

    def values(self) -> List[object]:
        if self._decoded is None:
            decoded: List[object] = []
            for value, count in self._runs:
                decoded.extend([value] * count)
            self._decoded = decoded
        return self._decoded

    def value_counts(self) -> Counter:
        return _merged_counts(self._runs)


def _merged_counts(pairs: Iterable[Tuple[object, int]]) -> Counter:
    """The :class:`Counter` of ``(value, count)`` pairs in value order.

    Values a codec keeps apart though they are equal (``0.0``/``-0.0``,
    ``1``/``1.0``) merge under the first of them, as ``Counter(values)``
    merges them.
    """
    counts = Counter()
    for value, count in pairs:
        counts[value] += count
    return counts


def encode_segment(values: Sequence[object], codec: str = "auto") -> Segment:
    """Encode a value list into a segment.

    ``codec`` is one of ``"plain"``, ``"dictionary"``, ``"rle"`` or
    ``"auto"``.  Auto picks the encoding with the fewest stored cells (RLE on
    a tie with the dictionary) and falls back to plain unless a codec
    actually shrinks the data, so pathological inputs (all-distinct,
    alternating) never pay decode cost for nothing.  It costs the codecs
    from counts and builds only the one it picks.  It copies ``values``
    once, so the segment shares no list with the caller.
    """
    values = list(values)
    if codec not in ("auto", "plain", "dictionary", "rle"):
        raise ValueError(f"unknown compression codec {codec!r}")
    if codec == "auto" and not values:
        codec = "plain"
    keys = values if codec == "plain" else _codec_keys(values)
    distinct = dict.fromkeys(keys) if codec in ("auto", "dictionary") else {}
    if codec == "auto":
        codec = _cheapest_codec(keys, len(distinct))
    # Block synopses are sealed at encode time, from the codes or the
    # still-plain input: segment-skipping never decodes a column to learn them.
    if codec == "dictionary":
        code_of = dict(zip(distinct, range(len(distinct))))
        codes = list(map(code_of.__getitem__, keys))
        if keys is values:
            dictionary = list(distinct)
            return DictionarySegment(dictionary, codes, _coded_block_stats(dictionary, codes))
        dictionary = [key[1] for key in distinct]
        return DictionarySegment(dictionary, codes, compute_block_stats(values))
    if codec == "rle":
        starts = [0, *_run_breaks(keys)] if values else []
        ends = [*starts[1:], len(values)]
        # A run's values are equal by type and sign of zero: keep its first.
        runs = list(zip(map(values.__getitem__, starts), map(sub, ends, starts)))
        return RLESegment(runs, len(values), compute_block_stats(values))
    return PlainSegment(values, compute_block_stats(values))


def _coded_block_stats(dictionary: List[object], codes: List[int]) -> List[BlockStats]:
    """:func:`compute_block_stats` of the decoded ``codes``, from the set of
    each block's codes.

    For a dictionary keyed by the values themselves: its entries are
    pairwise unequal (but for NaNs, which void a block's synopsis anyway),
    so a block's distinct entries have its extremes, by value and by type.
    """
    null = dictionary.index(None) if None in dictionary else -1
    stats: List[BlockStats] = []
    for start in range(0, len(codes), BLOCK_ROWS):
        block = codes[start : start + BLOCK_ROWS]
        present = set(block)
        nulls = block.count(null) if null in present else 0
        present.discard(null)
        entry = _block_stats(list(map(dictionary.__getitem__, present)))
        stats.append(None if entry is None else (entry[0], entry[1], nulls))
    return stats


def _cheapest_codec(keys: Sequence[object], distinct: int) -> str:
    rows = len(keys)
    cells = distinct + (rows + 3) // 4
    codec = "dictionary"
    # A column has at least as many runs as distinct values, so RLE (two
    # cells a run) can only win while 2 * distinct <= the dictionary's cells.
    if 2 * distinct <= cells:
        # RLE wins with up to ``most`` run breaks: count one more at most.
        most = cells // 2 - 1
        breaks = len(list(islice(_run_breaks(keys), most + 1)))
        if breaks <= most:
            codec, cells = "rle", 2 * (1 + breaks)
    return codec if cells < rows else "plain"


def _run_breaks(keys: Sequence[object]) -> Iterator[int]:
    """Positions whose key differs from the one before: where runs start."""
    return compress(range(1, len(keys)), map(ne, keys, islice(keys, 1, None)))


def _codec_keys(values: List[object]) -> Sequence[object]:
    """What both codecs compare: ``values`` itself, unless equal values in it
    differ (more than one non-NULL type, or both signs of zero)."""
    kinds = set(map(type, values)) - {type(None)}
    if len(kinds) <= 1 and not (float in kinds and _both_zeros(values)):
        return values
    return [
        (float, v, copysign(1.0, v)) if type(v) is float else (type(v), v)
        for v in values
    ]


def _both_zeros(values: List[object]) -> bool:
    zeros = compress(values, map(eq, values, repeat(0.0)))
    return len(set(map(copysign, repeat(1.0), zeros))) > 1
