"""Unit tests for the workload generators (distributions, IMDB, JOB, stocks)."""

import random

import pytest

from repro.workloads import (
    EXPECTED_TABLE_COUNTS,
    ImdbConfig,
    JobWorkloadConfig,
    StocksConfig,
    WeightedSampler,
    ZipfSampler,
    build_stocks_database,
    example_query,
    generate_imdb_dataset,
    generate_job_workload,
    generate_stocks_rows,
    imdb_schemas,
    table_count_distribution,
)


class TestDistributions:
    def test_zipf_head_heavier_than_tail(self):
        sampler = ZipfSampler(100, 1.0)
        rng = random.Random(1)
        draws = [sampler.sample(rng) for _ in range(5000)]
        head = sum(1 for d in draws if d < 10)
        tail = sum(1 for d in draws if d >= 90)
        assert head > 3 * tail
        assert abs(sum(sampler.probability(i) for i in range(100)) - 1.0) < 1e-9

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)

    def test_weighted_sampler(self):
        sampler = WeightedSampler(["a", "b"], [9, 1])
        rng = random.Random(2)
        draws = [sampler.sample(rng) for _ in range(1000)]
        assert draws.count("a") > 700
        with pytest.raises(ValueError):
            WeightedSampler([], [])


class TestImdbGenerator:
    def test_deterministic(self):
        first = generate_imdb_dataset(ImdbConfig(scale=0.05, seed=3))
        second = generate_imdb_dataset(ImdbConfig(scale=0.05, seed=3))
        assert first.tables["title"] == second.tables["title"]
        assert first.tables["cast_info"] == second.tables["cast_info"]

    def test_schema_and_tables_align(self, imdb_dataset):
        schema_names = {schema.name for schema in imdb_schemas()}
        assert set(imdb_dataset.tables) == schema_names
        assert sum(len(rows) for rows in imdb_dataset.tables.values()) > 5000

    def test_foreign_keys_valid(self, imdb_dataset):
        movie_ids = {row[0] for row in imdb_dataset.tables["title"]}
        keyword_ids = {row[0] for row in imdb_dataset.tables["keyword"]}
        for row in imdb_dataset.tables["movie_keyword"]:
            assert row[1] in movie_ids
            assert row[2] in keyword_ids
        person_ids = {row[0] for row in imdb_dataset.tables["name"]}
        for row in imdb_dataset.tables["cast_info"]:
            assert row[1] in person_ids
            assert row[2] in movie_ids

    def test_fanout_caps_respected(self, imdb_dataset):
        config = imdb_dataset.config
        counts = {}
        for row in imdb_dataset.tables["cast_info"]:
            counts[row[2]] = counts.get(row[2], 0) + 1
        assert max(counts.values()) <= config.max_cast_per_movie

    def test_skew_present(self, imdb_dataset):
        counts = {}
        for row in imdb_dataset.tables["movie_keyword"]:
            counts[row[1]] = counts.get(row[1], 0) + 1
        values = sorted(counts.values(), reverse=True)
        average = sum(values) / len(values)
        assert values[0] >= 3 * average

    def test_popular_keywords_in_vocabulary(self, imdb_dataset):
        assert "superhero" in imdb_dataset.vocabulary.popular_keywords
        keyword_texts = {row[1] for row in imdb_dataset.tables["keyword"]}
        assert set(imdb_dataset.vocabulary.popular_keywords) <= keyword_texts

    def test_loaded_database_analyzed(self, imdb_db):
        assert imdb_db.catalog.stats("title") is not None
        assert "movie_id" in imdb_db.catalog.indexes("movie_keyword")


class TestJobWorkload:
    def test_distribution_matches_table3(self, job_queries):
        assert len(job_queries) == 113
        assert table_count_distribution(job_queries) == EXPECTED_TABLE_COUNTS

    def test_names_unique(self, job_queries):
        names = [q.name for q in job_queries]
        assert len(names) == len(set(names))

    def test_queries_parse_and_bind(self, imdb_db, job_queries):
        for job in job_queries[::10]:
            bound = imdb_db.parse(job.sql, name=job.name)
            assert bound.num_tables() == job.num_tables
            assert len(bound.joins) >= job.num_tables - 1

    def test_every_query_has_a_filter(self, job_queries):
        assert all("WHERE" in q.sql for q in job_queries)

    def test_deterministic_generation(self, imdb_dataset):
        first = generate_job_workload(imdb_dataset.vocabulary, JobWorkloadConfig(seed=7))
        second = generate_job_workload(imdb_dataset.vocabulary, JobWorkloadConfig(seed=7))
        assert [q.sql for q in first] == [q.sql for q in second]

    def test_redundant_fact_joins_flag(self, imdb_dataset):
        with_redundant = generate_job_workload(
            imdb_dataset.vocabulary, JobWorkloadConfig(seed=7, redundant_fact_joins=True)
        )
        without = generate_job_workload(
            imdb_dataset.vocabulary, JobWorkloadConfig(seed=7)
        )
        assert len(with_redundant[20].sql) >= len(without[20].sql)


class TestStocks:
    def test_skewed_volume(self):
        config = StocksConfig(num_companies=500, num_trades=5000)
        companies, trades = generate_stocks_rows(config)
        assert len(companies) == 500
        assert len(trades) == 5000
        counts = {}
        for _, company_id, _ in trades:
            counts[company_id] = counts.get(company_id, 0) + 1
        top = sorted(counts.values(), reverse=True)[:25]
        assert sum(top) > 0.3 * len(trades)

    def test_database_and_example_query(self):
        db = build_stocks_database(StocksConfig(num_companies=200, num_trades=2000))
        run = db.run(example_query("APPL"))
        assert run.rows[0][0] > 0
        assert "APPL" in example_query("APPL")
