"""Schema objects: column types, column definitions, table schemas, foreign keys.

The schema layer is deliberately small and value-like.  A
:class:`TableSchema` is an immutable description of a table; the mutable
storage lives in :mod:`repro.storage.table`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.errors import CatalogError


class ColumnType(enum.Enum):
    """Supported column types.

    The engine is intentionally limited to the types the Join Order
    Benchmark needs: integers (surrogate keys, years, counts) and strings
    (names, keywords, notes).  ``FLOAT`` exists for derived statistics and
    the stocks example.
    """

    INT = "int"
    FLOAT = "float"
    TEXT = "text"

    def python_type(self) -> type:
        """Return the Python type used to store values of this column type."""
        if self is ColumnType.INT:
            return int
        if self is ColumnType.FLOAT:
            return float
        return str

    def coerce(self, value):
        """Coerce ``value`` to this column type, passing ``None`` through."""
        if value is None:
            return None
        expected = self.python_type()
        if isinstance(value, expected):
            return value
        try:
            return expected(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise CatalogError(
                f"cannot coerce {value!r} to column type {self.value}"
            ) from exc


@dataclass(frozen=True)
class ColumnDef:
    """Definition of a single column.

    Attributes:
        name: column name, unique within its table.
        col_type: the :class:`ColumnType`.
        nullable: whether NULLs may be stored.
    """

    name: str
    col_type: ColumnType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise CatalogError(f"invalid column name: {self.name!r}")


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key edge used to build join graphs and indexes.

    Attributes:
        column: referencing column in the owning table.
        ref_table: referenced table name.
        ref_column: referenced column name (usually the primary key).
    """

    column: str
    ref_table: str
    ref_column: str


@dataclass(frozen=True)
class PartitionSpec:
    """How a table is split into columnar shards.

    Attributes:
        method: ``"hash"`` (rows routed by a deterministic hash of the key)
            or ``"range"`` (rows routed by comparing the key against
            ``bounds``).
        column: the partition key column.
        partitions: number of partitions (hash partitioning only).
        bounds: strictly ascending *inclusive lower bounds* of partitions
            ``1..n-1`` (range partitioning only); keys below ``bounds[0]``
            land in partition 0, so ``len(bounds) + 1`` partitions exist.
            NULL keys always route to partition 0 under either method.
    """

    method: str
    column: str
    partitions: int = 0
    bounds: Tuple[object, ...] = ()

    def __post_init__(self) -> None:
        if self.method not in ("hash", "range"):
            raise CatalogError(
                f"unknown partition method {self.method!r} (expected 'hash' or 'range')"
            )
        if self.method == "hash":
            if self.partitions < 1:
                raise CatalogError(
                    f"hash partitioning needs at least 1 partition, got {self.partitions}"
                )
            if self.bounds:
                raise CatalogError("hash partitioning does not take range bounds")
        else:
            if not self.bounds:
                raise CatalogError("range partitioning needs at least one bound")
            if self.partitions:
                raise CatalogError(
                    "range partitioning derives its partition count from the bounds"
                )
            for low, high in zip(self.bounds, self.bounds[1:]):
                if not low < high:
                    raise CatalogError(
                        f"range partition bounds must be strictly ascending, got {self.bounds!r}"
                    )

    @property
    def num_partitions(self) -> int:
        """Total number of partitions the spec defines."""
        if self.method == "hash":
            return self.partitions
        return len(self.bounds) + 1


@dataclass(frozen=True)
class TableSchema:
    """Immutable description of a table.

    Attributes:
        name: table name, unique within a catalog.
        columns: ordered column definitions.
        primary_key: name of the primary key column, if any.
        foreign_keys: foreign-key edges departing from this table.
        partition_spec: optional :class:`PartitionSpec`; a table carrying one
            is stored as one routed, zone-mapped shard per partition, any
            other table as a single shard.
    """

    name: str
    columns: Tuple[ColumnDef, ...]
    primary_key: Optional[str] = None
    foreign_keys: Tuple[ForeignKey, ...] = field(default_factory=tuple)
    partition_spec: Optional[PartitionSpec] = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise CatalogError(f"invalid table name: {self.name!r}")
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise CatalogError(f"duplicate column names in table {self.name!r}")
        if self.primary_key is not None and self.primary_key not in names:
            raise CatalogError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )
        for fk in self.foreign_keys:
            if fk.column not in names:
                raise CatalogError(
                    f"foreign key column {fk.column!r} is not a column of {self.name!r}"
                )
        if self.partition_spec is not None and self.partition_spec.column not in names:
            raise CatalogError(
                f"partition key {self.partition_spec.column!r} is not a column "
                f"of {self.name!r}"
            )

    @property
    def column_names(self) -> Tuple[str, ...]:
        """Names of all columns, in declaration order."""
        return tuple(c.name for c in self.columns)

    def has_column(self, name: str) -> bool:
        """Return True if ``name`` is a column of this table."""
        return any(c.name == name for c in self.columns)

    def column(self, name: str) -> ColumnDef:
        """Return the :class:`ColumnDef` named ``name``.

        Raises:
            CatalogError: if the column does not exist.
        """
        for col in self.columns:
            if col.name == name:
                return col
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def column_index(self, name: str) -> int:
        """Return the positional index of column ``name``."""
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise CatalogError(f"table {self.name!r} has no column {name!r}")


def make_schema(
    name: str,
    columns: Sequence[Tuple[str, ColumnType]],
    primary_key: Optional[str] = None,
    foreign_keys: Sequence[Tuple[str, str, str]] = (),
    partition_by: Optional[PartitionSpec] = None,
) -> TableSchema:
    """Convenience constructor used throughout the workloads and tests.

    Args:
        name: table name.
        columns: sequence of ``(column_name, ColumnType)`` pairs.
        primary_key: optional primary key column name.
        foreign_keys: sequence of ``(column, ref_table, ref_column)`` triples.
        partition_by: optional :class:`PartitionSpec` splitting the table
            into hash- or range-partitioned shards.

    Returns:
        A validated :class:`TableSchema`.
    """
    cols = tuple(ColumnDef(cname, ctype) for cname, ctype in columns)
    fks = tuple(ForeignKey(col, rt, rc) for col, rt, rc in foreign_keys)
    return TableSchema(
        name=name,
        columns=cols,
        primary_key=primary_key,
        foreign_keys=fks,
        partition_spec=partition_by,
    )
