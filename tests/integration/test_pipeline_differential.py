"""Differential checks: the Connection path vs the bare pipeline surfaces.

The api-redesign acceptance criteria:

* the paper's numbers are identical through the serving surface — a one-off
  ``QueryPipeline`` with just the re-optimization interceptor and a
  re-optimizing ``Connection`` agree on planning/execution accounting and
  rows for the bundled workload queries;
* the plain ``Database.run`` path and a non-caching Connection agree;
* a ``PreparedStatement`` with ``?`` parameters returns the same rows as the
  equivalent literal SQL for **every** bundled workload query, and a second
  execution of the same prepared statement hits the plan cache.
"""

import re

import pytest

from repro.core import ReoptimizationInterceptor, ReoptimizationPolicy
from repro.engine import QueryPipeline, connect

# A quoted string or an unsigned number; the JOB statements carry literals
# only in their WHERE clauses, and numbers inside names (``it1``) are not
# words of their own.
_LITERAL = re.compile(r"'(?:[^']|'')*'|\b\d+(?:\.\d+)?\b")


def _placeholder_form(sql):
    """``sql`` with every literal a ``?``, and the literals' values in order."""
    values = []

    def lift(match):
        text = match.group()
        if text[0] == "'":
            values.append(text[1:-1].replace("''", "'"))
        else:
            values.append(float(text) if "." in text else int(text))
        return "?"

    return _LITERAL.sub(lift, sql), values


class TestConnectionMatchesDatabaseRun:
    def test_plain_path_identical(self, imdb_db, job_queries):
        connection = connect(imdb_db, reoptimize=False, plan_cache_size=0)
        for job in job_queries[::7]:
            bound = imdb_db.parse(job.sql, name=job.name)
            old = imdb_db.run(bound)
            context = connection.run_bound(bound)
            assert context.rows == old.rows, job.name
            assert context.planning_seconds == old.planning_seconds, job.name
            assert context.execution_seconds == old.execution_seconds, job.name


class TestBarePipelineMatchesConnection:
    def test_reoptimized_accounting_identical(self, imdb_db, job_queries):
        pipeline = QueryPipeline(
            imdb_db,
            [ReoptimizationInterceptor(ReoptimizationPolicy(threshold=32))],
        )
        connection = connect(
            imdb_db, policy=ReoptimizationPolicy(threshold=32), plan_cache_size=0
        )
        reoptimized = 0
        for job in job_queries[5:45:4]:
            bound = imdb_db.parse(job.sql, name=job.name)
            old = pipeline.run(bound=bound).report
            cursor = connection.execute(job.sql)
            context = cursor.context
            assert cursor.fetchall() == old.rows, job.name
            assert context.planning_seconds == pytest.approx(
                old.planning_seconds, rel=1e-12
            ), job.name
            assert context.execution_seconds == pytest.approx(
                old.execution_seconds, rel=1e-12
            ), job.name
            assert context.reoptimized == old.reoptimized, job.name
            reoptimized += int(old.reoptimized)
        # The slice must exercise the re-optimization loop, not just bypass it.
        assert reoptimized > 0


class TestPreparedMatchesLiteral:
    def test_every_workload_query(self, imdb_db, job_queries):
        """?-parameterized execution matches literal SQL for all 113 queries."""
        connection = connect(imdb_db, reoptimize=False, plan_cache_size=256)
        literal_connection = connect(imdb_db, reoptimize=False, plan_cache_size=0)
        for job in job_queries:
            template, values = _placeholder_form(job.sql)
            assert values, job.name
            statement = connection.prepare(template, name=job.name)
            assert statement.param_count == len(values), job.name
            literal_rows = literal_connection.execute(job.sql).fetchall()
            cold = statement.execute(values)
            assert cold.fetchall() == literal_rows, job.name
            warm = statement.execute(values)
            assert warm.context.plan_cached, job.name
            assert warm.fetchall() == literal_rows, job.name
        assert connection.cache_stats.hits >= len(job_queries)
