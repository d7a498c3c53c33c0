"""A read-only :class:`~repro.engine.database.Database` over a pinned catalog.

The serving layer executes every statement against a
:class:`SnapshotDatabase` pinned at statement start.  It is the ordinary
``Database`` facade — same optimizer, cost model, executor and binder —
constructed over a :class:`~repro.catalog.snapshot.CatalogSnapshot`, so the
whole query path (including the adaptive re-optimizer, whose temporary
tables and transient intermediates land on the session-local snapshot
catalog) runs unchanged and fully isolated from concurrent writers.

Writes against pinned base tables are rejected by the storage snapshots
themselves (:class:`~repro.errors.StorageError`); statement-local state such
as re-optimization temp tables is created as fresh writable tables on the
local catalog, so no override of the write API is needed.
"""

from __future__ import annotations

from repro.engine.database import Database

__all__ = ["SnapshotDatabase"]


class SnapshotDatabase(Database):
    """One statement's consistent view of a shared :class:`Database`."""

    def __init__(self, base: Database) -> None:
        # Share the base's feedback store: observations harvested on one
        # session's snapshot must seed plans on every other session.  The
        # estimator source itself is rebuilt over the *snapshot* catalog so
        # statistics reads stay pinned to this statement's view.
        super().__init__(
            base.settings, catalog=base.catalog.snapshot(), feedback=base.feedback
        )
        #: The shared database this snapshot was pinned from.
        self.base = base

    def snapshot(self) -> "Database":
        """Snapshots are already pinned; re-pinning returns a fresh one
        from the base so nested calls never stack views on views."""
        return self.base.snapshot()
