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
pairwise ``!=`` pass, skipped once runs cannot win — and builds only the
winner, in C-level passes that allocate nothing per row.  Encoding is exact:
``segment.values()`` round-trips the input element-for-element, NULLs
included, equal by type and by the sign of zero; a column where equal values
differ (``True``/``1``/``1.0``, ``0.0``/``-0.0``) is keyed by type, value and
sign instead of by value.  The differential fuzzer relies on this when it
serves the whole query stream from a compressed database.
"""

from __future__ import annotations

from itertools import compress, repeat
from math import copysign
from operator import eq, ne, sub
from typing import List, Optional, Sequence, Tuple

from repro.storage.column import value_range

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
#: types) stores ``None`` instead of a tuple — "no statistics, never skip".
BlockStats = Optional[Tuple[Optional[object], Optional[object], int]]


def compute_block_stats(values: Sequence[object]) -> List[BlockStats]:
    """Min/max/null-count synopses of ``values`` in :data:`BLOCK_ROWS` blocks."""
    return [
        _block_stats(values[start : start + BLOCK_ROWS])
        for start in range(0, len(values), BLOCK_ROWS)
    ]


def _block_stats(block: List[object]) -> BlockStats:
    try:
        return value_range(block)
    except TypeError:
        # Incomparable mix of types: record "no stats" for the block so the
        # skipping logic conservatively keeps it.
        return None


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

    def encoded_cells(self) -> int:
        """Number of stored cells after encoding (compression accounting)."""
        raise NotImplementedError

    def block_stats(self) -> List[BlockStats]:
        """Per-:data:`BLOCK_ROWS`-block min/max/null-count synopses.

        Sealed at encode time from the original values (no decode); segments
        constructed directly compute them lazily on first use and cache.
        """
        stats = self._block_stats
        if stats is None:
            stats = self._block_stats = compute_block_stats(self.values())
        return stats

    def seal_block_stats(self, stats: List[BlockStats]) -> None:
        """Attach precomputed block synopses (called by :func:`encode_segment`)."""
        self._block_stats = stats


class PlainSegment(Segment):
    """Uncompressed segment: the value list verbatim."""

    codec = "plain"
    __slots__ = ("_values", "_block_stats")

    def __init__(self, values: Sequence[object]) -> None:
        self._values = list(values)
        self._block_stats: Optional[List[BlockStats]] = None

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> List[object]:
        return self._values

    def encoded_cells(self) -> int:
        return len(self._values)


class DictionarySegment(Segment):
    """Dictionary encoding: distinct values + one code per row.

    The dictionary keeps first-appearance order so encoding is deterministic
    for a given input; NULL participates as an ordinary dictionary entry.
    """

    codec = "dictionary"
    __slots__ = ("_dictionary", "_codes", "_decoded", "_block_stats")

    def __init__(self, dictionary: List[object], codes: List[int]) -> None:
        self._dictionary = dictionary
        self._codes = codes
        self._decoded: Optional[List[object]] = None
        self._block_stats: Optional[List[BlockStats]] = None

    def __len__(self) -> int:
        return len(self._codes)

    @property
    def dictionary_size(self) -> int:
        """Number of distinct values in the dictionary."""
        return len(self._dictionary)

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

    def encoded_cells(self) -> int:
        # Codes are narrow integers, not full values; count them as packed
        # four to a cell so low-cardinality columns actually beat plain.
        return len(self._dictionary) + (len(self._codes) + 3) // 4


class RLESegment(Segment):
    """Run-length encoding: ``(value, run_length)`` pairs."""

    codec = "rle"
    __slots__ = ("_runs", "_length", "_decoded", "_block_stats")

    def __init__(self, runs: List[Tuple[object, int]], length: int) -> None:
        self._runs = runs
        self._length = length
        self._decoded: Optional[List[object]] = None
        self._block_stats: Optional[List[BlockStats]] = None

    def __len__(self) -> int:
        return self._length

    @property
    def run_count(self) -> int:
        """Number of stored runs."""
        return len(self._runs)

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

    def encoded_cells(self) -> int:
        return 2 * len(self._runs)


def encode_segment(values: Sequence[object], codec: str = "auto") -> Segment:
    """Encode a value list into a segment.

    ``codec`` is one of ``"plain"``, ``"dictionary"``, ``"rle"`` or
    ``"auto"``.  Auto picks the encoding with the fewest stored cells (RLE on
    a tie with the dictionary) and falls back to plain unless a codec
    actually shrinks the data, so pathological inputs (all-distinct,
    alternating) never pay decode cost for nothing.  It costs the codecs
    from counts and builds only the one it picks.
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
    segment: Segment
    if codec == "dictionary":
        code_of = dict(zip(distinct, range(len(distinct))))
        dictionary = list(distinct) if keys is values else [key[1] for key in distinct]
        segment = DictionarySegment(dictionary, list(map(code_of.__getitem__, keys)))
    elif codec == "rle":
        breaks = compress(range(1, len(values)), map(ne, keys, keys[1:]))
        starts = [0, *breaks] if values else []
        ends = [*starts[1:], len(values)]
        # A run's values are equal by type and sign of zero: keep its first.
        runs = list(zip(map(values.__getitem__, starts), map(sub, ends, starts)))
        segment = RLESegment(runs, len(values))
    else:
        segment = PlainSegment(values)
    # Sealed at encode time from the still-plain input: segment-skipping
    # never has to decode a column just to learn its block min/max.
    segment.seal_block_stats(compute_block_stats(values))
    return segment


def _cheapest_codec(keys: Sequence[object], distinct: int) -> str:
    rows = len(keys)
    cells = distinct + (rows + 3) // 4
    codec = "dictionary"
    # A column has at least as many runs as distinct values, so RLE (two
    # cells a run) can only win while 2 * distinct <= the dictionary's cells.
    if 2 * distinct <= cells:
        run_cells = 2 * (1 + sum(map(ne, keys, keys[1:])))
        if run_cells <= cells:
            codec, cells = "rle", run_cells
    return codec if cells < rows else "plain"


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
