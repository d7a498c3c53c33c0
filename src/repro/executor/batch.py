"""Columnar result batches.

A :class:`ColumnBatch` is the vectorized executor's intermediate result
representation: a set of qualified columns whose values live in parallel
backing lists, each viewed through an optional *selection vector* (a list of
row indices into the backing list).  Operators never copy payload columns:

* a sequential scan hands the storage layer's raw column lists straight into
  a batch (zero-copy);
* a filter produces a new batch that shares the backing lists and only
  narrows the selection vectors;
* a hash join gathers two index vectors (one per side) and composes them
  with the inputs' selection vectors — the cost of a join is proportional to
  the number of matches, not ``matches x columns`` — and it does so only
  when somebody reads its rows: until then the batch holds the factorized
  match (:meth:`ColumnBatch.from_join`), which already knows its length and
  which ``MIN``/``MAX`` fold per side without laying anything out.

Columns coming from the same side of a join share one selection-vector
*object*; :meth:`restrict` preserves that sharing so composition work is paid
once per side, not once per column.

The class is duck-type compatible with the reference engine's
:class:`~repro.executor.reference.ResultSet` (``columns``, ``rows``,
``column_values``, ``column_position``, ``project``, ``__len__``), so every
consumer of execution results — temp-table materialization, the true
cardinality oracle, benchmarks — works with either engine's output.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.executor.expressions import ColumnResolver

QualifiedColumn = Tuple[str, str]


class ColumnBatch:
    """A columnar intermediate result with per-column selection vectors."""

    __slots__ = (
        "columns",
        "resolver",
        "_data",
        "_selections",
        "_length",
        "_rows",
        "_match",
        "_scan_parts",
    )

    def __init__(
        self,
        columns: Sequence[QualifiedColumn],
        data: Sequence[List[object]],
        sels: Optional[Sequence[Optional[List[int]]]] = None,
        length: Optional[int] = None,
        scan_parts: Optional[Sequence[Tuple[int, Sequence[int]]]] = None,
    ) -> None:
        """``scan_parts`` is given by :mod:`repro.executor.scan`'s base-table
        scans only: one ``(global row id of the shard's first row, local row
        ids kept)`` pair per shard read, the local ids ascending — a
        ``range`` when the scan kept every row of the shard (see
        :meth:`row_ids`)."""
        self.columns: Tuple[QualifiedColumn, ...] = tuple(columns)
        self._data: List[List[object]] = list(data)
        if len(self._data) != len(self.columns):
            raise ValueError(
                f"{len(self.columns)} columns but {len(self._data)} data lists"
            )
        self._selections: List[Optional[List[int]]] = (
            list(sels) if sels is not None else [None] * len(self._data)
        )
        self._match: Optional[tuple] = None
        if length is None:
            if not self._data:
                length = 0
            else:
                sel = self._selections[0]
                length = len(sel) if sel is not None else len(self._data[0])
        self._length = length
        self.resolver = ColumnResolver(self.columns)
        self._rows: Optional[List[tuple]] = None
        self._scan_parts = scan_parts

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(
        cls, columns: Sequence[QualifiedColumn], rows: Sequence[tuple]
    ) -> "ColumnBatch":
        """Build a batch from row tuples (transposes once)."""
        if rows:
            data = [list(values) for values in zip(*rows)]
        else:
            data = [[] for _ in columns]
        return cls(columns, data, length=len(rows))

    @classmethod
    def from_result(cls, result) -> "ColumnBatch":
        """Coerce any result-set-like object (e.g. a ``ResultSet``) to a batch."""
        if isinstance(result, cls):
            return result
        return cls.from_rows(result.columns, result.rows)

    @classmethod
    def from_join(
        cls,
        left: "ColumnBatch",
        right: "ColumnBatch",
        build_on_left: bool,
        probe_idx: Optional[List[int]],
        hit_buckets: List[List[int]],
        length: int,
    ) -> "ColumnBatch":
        """The output of a hash join, laid out only when its rows are read.

        ``probe_idx[k]`` is a probe-side row that found partners (``None``
        when every probe row did: ``k`` itself, as with a selection vector)
        and ``hit_buckets[k]`` the build-side rows sharing its key (one list
        object per distinct key, build insertion order); the output is, for
        every ``k`` in order, that probe row beside each row of its bucket —
        ``length`` pairs, ``sum(map(len, hit_buckets))``, which is all
        ``len()`` needs.  The first reader of a selection vector —
        ``column_storage``, ``restrict``, ``concat``, a projection — pays for
        the layout, once, and the factorized form is dropped; a reader of
        whole columns (:meth:`values`, hence ``rows``) gathers them per side
        and :meth:`matched_columns` reads each matched row once: neither
        composes a vector.
        """
        batch = cls(
            left.columns + right.columns,
            left._data + right._data,
            length=length,
        )
        batch._match = (left, right, build_on_left, probe_idx, hit_buckets)
        return batch

    @property
    def _sels(self) -> List[Optional[List[int]]]:
        if self._match is not None:
            self._lay_out()
        return self._selections

    def _lay_out(self) -> None:
        """Expand the factorized join match into per-column selection vectors."""
        left, right, build_on_left, probe_idx, hit_buckets = self._match
        self._match = None
        build_idx = list(chain.from_iterable(hit_buckets))
        hit_rows = range(len(hit_buckets)) if probe_idx is None else probe_idx
        if len(build_idx) != len(hit_rows):  # some build key repeats
            probe_idx = [i for i, hits in zip(hit_rows, hit_buckets) for _ in hits]
        elif probe_idx is None:
            probe_idx = list(hit_rows)
        # From here on the batch keeps what an eagerly laid out join keeps.
        del hit_buckets
        if build_on_left:
            left_sel, right_sel = build_idx, probe_idx
        else:
            left_sel, right_sel = probe_idx, build_idx
        self._selections = (
            left.restrict(left_sel)._sels + right.restrict(right_sel)._sels
        )

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def column_position(self, alias: str, column: str) -> int:
        """Position of ``alias.column`` among the batch's columns."""
        return self.resolver.position(alias, column)

    def column_storage(self, position: int) -> Tuple[List[object], Optional[List[int]]]:
        """Raw ``(backing list, selection vector)`` of one column.

        The backing list may be longer than the batch when the selection is
        ``None`` and the underlying storage grew after the batch was created;
        callers that iterate it directly must bound the scan by ``len(self)``.
        """
        return self._data[position], self._sels[position]

    def values(self, position: int) -> List[object]:
        """Compacted values of the column at ``position`` (selection applied).

        A join not laid out yet gathers the column on its own side — the
        build rows of the hit buckets end to end, or every probe row that hit
        once per partner — so reading a few columns of a join (its parent's
        key, a handover, a group key) composes no selection vector at all.
        """
        if self._match is not None:
            side, local, on_build = self._side_of(position)
            _, _, _, probe_idx, hit_buckets = self._match
            if on_build:
                return side.take(local, chain.from_iterable(hit_buckets))
            column = side.take(local, probe_idx)
            if len(column) != self._length:  # some build key repeats
                repeats = map(repeat, column, map(len, hit_buckets))
                column = list(chain.from_iterable(repeats))
            return column
        data = self._data[position]
        sel = self._sels[position]
        if sel is None:
            if len(data) != self._length:
                return data[: self._length]
            return data
        return [data[i] for i in sel]

    def row_ids(self) -> Optional[Sequence[int]]:
        """Global row ids of a base-table scan's rows, ascending.

        ``None`` for any batch that is not a scan's output.  The ids are
        expanded from the scan's parts on each call — only an index
        nested-loop join asks, once per join — and cost nothing for one
        shard starting at row 0: its local ids are the global ones.
        """
        parts = self._scan_parts
        if parts is None:
            return None
        if len(parts) == 1:
            offset, local = parts[0]
            if not offset:
                return local
            if isinstance(local, range):
                return range(local.start + offset, local.stop + offset)
        return list(
            chain.from_iterable(map(offset.__add__, local) for offset, local in parts)
        )

    def column_values(self, alias: str, column: str) -> List[object]:
        """All values of one column (selection applied; may alias storage)."""
        return self.values(self.column_position(alias, column))

    def take(self, position: int, indices: Optional[Iterable[int]]) -> List[object]:
        """Values of the column at ``position`` for the batch rows ``indices``
        (``None``: every row, as with a selection vector)."""
        if indices is None:
            return self.values(position)
        data, sel = self.column_storage(position)
        if sel is None:
            return [data[i] for i in indices]
        return [data[sel[i]] for i in indices]

    def matched_columns(self, positions: Sequence[int]) -> List[List[object]]:
        """Columns for a fold that duplicates cannot change (``MIN``/``MAX``).

        For a join not laid out yet, each column is read on its own side over
        the rows that *matched*, each once, in the order the expanded output
        first shows them: the probe rows that hit, or the distinct hit
        buckets end to end.  Same set of values as :meth:`values`, first of
        equals (``0.0``/``-0.0``, ``1``/``True``) included, at the cost of
        the matched rows instead of the matching pairs.  Any other batch
        answers with :meth:`values`.
        """
        if self._match is None:
            return [self.values(position) for position in positions]
        _, _, _, probe_idx, hit_buckets = self._match
        build_rows: Optional[List[int]] = None
        out: List[List[object]] = []
        for position in positions:
            side, local, on_build = self._side_of(position)
            if not on_build:
                rows = probe_idx
            else:
                if build_rows is None:
                    distinct = dict(zip(map(id, hit_buckets), hit_buckets))
                    build_rows = list(chain.from_iterable(distinct.values()))
                rows = build_rows
            out.append(side.take(local, rows))
        return out

    def _side_of(self, position: int) -> Tuple["ColumnBatch", int, bool]:
        """The input of a factorized join holding column ``position``: that
        batch, the column's position in it, and whether it is the build side."""
        left, right, build_on_left = self._match[:3]
        width = len(left.columns)
        if position < width:
            return left, position, build_on_left
        return right, position - width, not build_on_left

    @property
    def rows(self) -> List[tuple]:
        """Row-tuple view of the batch (materialized lazily, then cached)."""
        if self._rows is None:
            if not self._data:
                self._rows = [() for _ in range(self._length)]
            else:
                self._rows = list(
                    zip(*(self.values(p) for p in range(len(self._data))))
                )
        return self._rows

    # -- batch algebra ------------------------------------------------------

    def restrict(self, indices: List[int]) -> "ColumnBatch":
        """Keep only the batch rows at ``indices`` (composes selections).

        Columns sharing a selection-vector object keep sharing the composed
        vector, so the composition cost is paid once per distinct source.
        """
        composed: Dict[int, List[int]] = {}
        new_sels: List[Optional[List[int]]] = []
        for sel in self._sels:
            key = id(sel)
            if key not in composed:
                composed[key] = (
                    indices if sel is None else [sel[i] for i in indices]
                )
            new_sels.append(composed[key])
        return ColumnBatch(self.columns, self._data, new_sels, length=len(indices))

    def with_columns(
        self, columns: Sequence[QualifiedColumn], positions: Sequence[int]
    ) -> "ColumnBatch":
        """Project to ``positions``, renaming the output to ``columns``."""
        return ColumnBatch(
            columns,
            [self._data[p] for p in positions],
            [self._sels[p] for p in positions],
            length=self._length,
        )

    def project(self, columns: Sequence[QualifiedColumn]) -> "ColumnBatch":
        """Return a batch with only the requested columns (zero-copy)."""
        positions = [self.column_position(alias, column) for alias, column in columns]
        return self.with_columns(columns, positions)

    @staticmethod
    def concat(left: "ColumnBatch", right: "ColumnBatch") -> "ColumnBatch":
        """Glue two equal-length batches side by side (zero-copy)."""
        if len(left) != len(right):
            raise ValueError(
                f"cannot concatenate batches of {len(left)} and {len(right)} rows"
            )
        return ColumnBatch(
            left.columns + right.columns,
            left._data + right._data,
            left._sels + right._sels,
            length=len(left),
        )
