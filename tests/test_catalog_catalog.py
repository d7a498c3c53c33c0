"""Unit tests for the catalog registry."""

import pytest

from repro.catalog import Catalog, ColumnType, make_schema
from repro.errors import CatalogError
from repro.stats import analyze_table
from repro.storage import HashIndex, Table


def _schema(name="t"):
    return make_schema(name, [("id", ColumnType.INT), ("value", ColumnType.TEXT)], primary_key="id")


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        schema = _schema()
        table = Table(schema)
        entry = catalog.register(schema, table)
        assert "t" in catalog
        assert catalog.schema("t") is schema
        assert catalog.table("t") is table
        assert entry.stats is None

    def test_duplicate_registration_rejected(self):
        catalog = Catalog()
        schema = _schema()
        catalog.register(schema, Table(schema))
        with pytest.raises(CatalogError):
            catalog.register(schema, Table(schema))

    def test_unknown_table(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.entry("missing")

    def test_drop(self):
        catalog = Catalog()
        schema = _schema()
        catalog.register(schema, Table(schema))
        catalog.drop("t")
        assert "t" not in catalog
        with pytest.raises(CatalogError):
            catalog.drop("t")

    def test_table_names_order(self):
        catalog = Catalog()
        for name in ("alpha", "beta", "gamma"):
            schema = _schema(name)
            catalog.register(schema, Table(schema))
        assert catalog.table_names() == ["alpha", "beta", "gamma"]
        assert len(catalog) == 3

    def test_stats_attachment(self):
        catalog = Catalog()
        schema = _schema()
        table = Table(schema)
        table.load_columns([[1, 2], ["a", "b"]])
        catalog.register(schema, table)
        stats = analyze_table(table)
        catalog.set_stats("t", stats)
        assert catalog.stats("t").row_count == 2

    def test_only_different_statistics_bump_the_epoch(self):
        catalog = Catalog()
        schema = _schema()
        table = Table(schema)
        table.load_columns([[1, 2], ["a", "b"]])
        catalog.register(schema, table)
        assert catalog.set_stats("t", analyze_table(table))
        epoch = catalog.epoch
        assert not catalog.set_stats("t", analyze_table(table))
        assert catalog.epoch == epoch
        table.load_columns([[3], ["c"]])
        assert catalog.set_stats("t", analyze_table(table))
        assert catalog.epoch == epoch + 1
        assert catalog.stats("t").row_count == 3

    def test_index_registration(self):
        catalog = Catalog()
        schema = _schema()
        table = Table(schema)
        table.load_columns([[1, 2], ["a", "b"]])
        catalog.register(schema, table)
        catalog.add_index("t", HashIndex(table, "id"))
        assert "id" in catalog.indexes("t")
        assert catalog.entry("t").index_on("id") is not None
        assert catalog.entry("t").index_on("value") is None
