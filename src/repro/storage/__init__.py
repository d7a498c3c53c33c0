"""Storage subsystem: columnar tables and secondary indexes."""

from repro.storage.column import Column
from repro.storage.index import HashIndex, Index, build_foreign_key_indexes
from repro.storage.intermediate import IntermediateTable
from repro.storage.table import Table

__all__ = [
    "Column",
    "HashIndex",
    "Index",
    "IntermediateTable",
    "Table",
    "build_foreign_key_indexes",
]
