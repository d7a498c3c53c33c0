"""Shared fixtures for the test suite.

Expensive fixtures (the synthetic IMDB database, the bench context) are
session-scoped; tests must treat them as read-only.  Tests that need to
mutate a database build their own via the ``*_factory`` fixtures.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog import ColumnType, make_schema
from repro.bench.harness import build_context
from repro.engine import Database
from repro.workloads import (
    ImdbConfig,
    JobWorkloadConfig,
    build_imdb_database,
    generate_job_workload,
)

TEST_SCALE = 0.15
TEST_SEED = 42


def build_stock_like_database(num_companies: int = 150, num_trades: int = 4000, seed: int = 0) -> Database:
    """A small two-table database with join-key skew (used by many unit tests)."""
    rng = random.Random(seed)
    db = Database()
    db.create_table(
        make_schema(
            "company",
            [("id", ColumnType.INT), ("symbol", ColumnType.TEXT), ("sector", ColumnType.TEXT)],
            primary_key="id",
        )
    )
    db.create_table(
        make_schema(
            "trades",
            [
                ("id", ColumnType.INT),
                ("company_id", ColumnType.INT),
                ("shares", ColumnType.INT),
                ("venue", ColumnType.TEXT),
            ],
            primary_key="id",
            foreign_keys=[("company_id", "company", "id")],
        )
    )
    sectors = ["tech", "energy", "health", "finance"]
    db.load_rows(
        "company",
        [(i + 1, f"SYM{i + 1}", sectors[i % len(sectors)]) for i in range(num_companies)],
    )
    rows = []
    for i in range(num_trades):
        company_id = 1 if rng.random() < 0.35 else rng.randint(2, num_companies)
        rows.append((i + 1, company_id, rng.randint(1, 5000), "NYSE" if rng.random() < 0.7 else "NASDAQ"))
    db.load_rows("trades", rows)
    db.finalize_load()
    return db


@pytest.fixture
def stock_db() -> Database:
    """Fresh skewed two-table database (mutable per test)."""
    return build_stock_like_database()


@pytest.fixture
def stock_db_factory():
    """Builder of further fresh skewed two-table databases (same rows every call)."""
    return build_stock_like_database


@pytest.fixture(scope="session")
def shared_stock_db() -> Database:
    """Session-wide skewed two-table database (treat as read-only)."""
    return build_stock_like_database()


@pytest.fixture(scope="session")
def imdb_db_and_dataset():
    """Session-wide small synthetic IMDB database (treat as read-only)."""
    return build_imdb_database(ImdbConfig(scale=TEST_SCALE, seed=TEST_SEED))


@pytest.fixture(scope="session")
def imdb_db(imdb_db_and_dataset):
    """The loaded IMDB database."""
    return imdb_db_and_dataset[0]


@pytest.fixture(scope="session")
def imdb_dataset(imdb_db_and_dataset):
    """The generated IMDB dataset object."""
    return imdb_db_and_dataset[1]


@pytest.fixture(scope="session")
def job_queries(imdb_dataset):
    """The full 113-query workload (SQL text level)."""
    return generate_job_workload(imdb_dataset.vocabulary, JobWorkloadConfig(seed=7))


@pytest.fixture(scope="session")
def bench_context():
    """A small bench context over the first 24 workload queries."""
    return build_context(scale=TEST_SCALE, seed=TEST_SEED, query_limit=24)
