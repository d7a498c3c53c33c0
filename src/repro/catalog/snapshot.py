"""Point-in-time catalog views (the catalog half of MVCC).

:meth:`~repro.catalog.catalog.Catalog.snapshot` pins, under the catalog
lock, the epoch plus a frozen :class:`~repro.catalog.catalog.CatalogEntry`
per table — schema and statistics by reference, a private copy of the index
dict, and a read-only storage snapshot
(:func:`~repro.storage.snapshot.take_snapshot`).  A
:class:`CatalogSnapshot` is a full :class:`Catalog` over those frozen
entries, so the binder, optimizer, both engines and the adaptive
re-optimizer run against it unchanged.

The snapshot is **session-local and writable**: the re-optimizer registers
its transient intermediates and temporary tables right here, invisible to
every other session and to the shared base catalog.  Local DDL bumps only
the snapshot's private epoch; those locally bumped epochs never reach the
shared plan cache because the cache is probed (and populated) once per
statement, at plan time, before any mid-execution registration can happen.

Transient pseudo-tables of the *base* catalog are excluded from snapshots:
they belong to whatever statement is mid-flight on another session and are
dropped before that statement returns.
"""

from __future__ import annotations

from typing import Dict

from repro.catalog.catalog import Catalog, CatalogEntry

__all__ = ["CatalogSnapshot"]


class CatalogSnapshot(Catalog):
    """A :class:`Catalog` pinned at one epoch over frozen entries.

    Inherits every accessor and mutator; mutations touch only the
    snapshot's private entry dict and epoch, under its own (uncontended)
    lock.
    """

    def __init__(self, epoch: int, entries: Dict[str, CatalogEntry]) -> None:
        super().__init__()
        self._entries.update(entries)
        self._epoch = epoch
