"""Micro-benchmark guard: prepared re-execution skips planning via the cache.

A repeated JOB query served through a prepared statement must hit the
connection's plan cache on re-execution, and the cached plan stage must be
at least 10x faster (wall-clock, best of N) than a cold plan — the planning
component is what the cache removes.  Simulated planning time on a hit is
exactly zero by construction; that is asserted too.
"""

from __future__ import annotations

import os

from conftest import print_experiment

from repro.bench.reporting import ExperimentResult
from repro.engine import connect

# The acceptance floor is 10x; REPRO_PLAN_CACHE_FLOOR exists so noisy shared
# runners can lower the gate without editing code (never raise it in CI).
CACHE_SPEEDUP_FLOOR = float(os.environ.get("REPRO_PLAN_CACHE_FLOOR", "10.0"))
BEST_OF = 5


def test_prepared_plan_cache_speedup(context):
    # The widest workload query: join enumeration dominates its plan stage,
    # which is exactly the work a cache hit must skip.
    job = max(context.job_queries, key=lambda q: q.num_tables)
    connection = connect(context.database, reoptimize=False)
    statement = connection.prepare(job.sql, name=job.name)

    cold_seconds = []
    for _ in range(BEST_OF):
        connection.plan_cache.clear()
        cursor = statement.execute()
        assert not cursor.context.plan_cached
        cold_seconds.append(cursor.context.stage_seconds["plan"])

    baseline = statement.execute()
    assert baseline.context.plan_cached  # warm from the last cold run
    expected_rows = baseline.fetchall()
    warm_seconds = []
    for _ in range(BEST_OF):
        cursor = statement.execute()
        assert cursor.context.plan_cached
        assert cursor.context.planning_seconds == 0.0
        assert cursor.fetchall() == expected_rows
        warm_seconds.append(cursor.context.stage_seconds["plan"])

    cold = min(cold_seconds)
    warm = min(warm_seconds)
    speedup = cold / warm if warm > 0 else float("inf")

    result = ExperimentResult(
        experiment_id="plan-cache",
        title=f"plan stage: cold optimizer vs cache hit on {job.name} "
        f"({job.num_tables} tables, best of {BEST_OF})",
        headers=["path", "plan_seconds", "speedup"],
    )
    result.add_row("cold plan", f"{cold:.6f}", "1.0x")
    result.add_row("cache hit", f"{warm:.6f}", f"{speedup:.1f}x")
    result.add_note(
        f"cache stats: {connection.cache_stats.hits} hit(s), "
        f"{connection.cache_stats.misses} miss(es)"
    )
    print_experiment(result)

    assert speedup >= CACHE_SPEEDUP_FLOOR, (
        f"cached plan stage only {speedup:.1f}x faster than cold "
        f"(floor {CACHE_SPEEDUP_FLOOR}x)"
    )
