"""Storage subsystem: columnar tables and secondary indexes."""

from repro.storage.index import HashIndex, Index, build_foreign_key_indexes
from repro.storage.table import Table

__all__ = [
    "HashIndex",
    "Index",
    "Table",
    "build_foreign_key_indexes",
]
