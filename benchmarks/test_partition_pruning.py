"""Micro-benchmark guard: zone-map partition pruning vs full-table scans.

The same selective range query over the stocks trades table runs against
two copies of the
data — one range-partitioned on ``company_id`` into 16 shards, one plain
single-shard — and the partitioned scan must finish at least 3x faster.
The speedup comes from the planner/executor pruning every shard whose zone
map proves the ``BETWEEN`` can never be TRUE, so only 1 of 16 partitions is
read; both executions must return identical rows, and the pruned EXPLAIN
must say so (``Partitions: 1/16 scanned``).

The predicate targets a mid-range of company ids: the workload's Zipf skew
concentrates volume on the low ids, so a tail shard stays small and the
pruned scan touches only a sliver of the table.
"""

from __future__ import annotations

import dataclasses
import os

from conftest import print_experiment

from repro.bench.reporting import ExperimentResult
from repro.catalog import PartitionSpec
from repro.engine import Database
from repro.workloads.stocks import StocksConfig, generate_stocks_rows, stocks_schemas

# The acceptance floor is 3x; REPRO_PRUNING_SPEEDUP_FLOOR exists so noisy
# shared runners can lower the gate without editing code (never raise it in
# CI).
SPEEDUP_FLOOR = float(os.environ.get("REPRO_PRUNING_SPEEDUP_FLOOR", "3.0"))

NUM_PARTITIONS = 16

#: A selective range over mid-tail company ids — prunable to one shard.
PRUNABLE_SQL = (
    "SELECT count(t.id) AS n FROM trades AS t "
    "WHERE t.company_id BETWEEN 2010 AND 2200"
)

BEST_OF = 5


def build_databases(config: StocksConfig):
    """The same stocks rows loaded twice: partitioned and single-shard."""
    company_schema, trades_schema = stocks_schemas()
    step = config.num_companies // NUM_PARTITIONS
    spec = PartitionSpec(
        method="range",
        column="company_id",
        bounds=tuple(range(step + 1, config.num_companies, step)),
    )
    companies, trades = generate_stocks_rows(config)
    databases = []
    for partition_spec in (spec, None):
        db = Database()
        db.create_table(company_schema)
        db.create_table(
            dataclasses.replace(trades_schema, partition_spec=partition_spec)
        )
        db.load_rows("company", companies)
        db.load_rows("trades", trades)
        db.finalize_load()
        databases.append(db)
    return databases


def test_partition_pruning_speedup(recorder):
    partitioned_db, plain_db = build_databases(StocksConfig())

    # Guard 1: the plan itself advertises the prune, k < n.
    explain = partitioned_db.explain(PRUNABLE_SQL)
    assert f"Partitions: 1/{NUM_PARTITIONS} scanned" in explain, explain

    planned = [partitioned_db.plan(PRUNABLE_SQL), plain_db.plan(PRUNABLE_SQL)]
    executors = [partitioned_db.executor, plain_db.executor]
    best = [None, None]
    # Interleaved best-of-N so a load spike on a shared runner degrades both
    # sides alike (same policy as conftest.measure_speedup, which cannot be
    # used directly here because the two sides plan against different
    # catalogs).
    for _ in range(BEST_OF):
        for i in range(2):
            execution = executors[i].execute(planned[i].plan)
            if best[i] is None or execution.wall_seconds < best[i].wall_seconds:
                best[i] = execution
    pruned, full = best

    # Guard 2: pruning never changes the answer.
    assert pruned.result.rows == full.result.rows

    # The pruned side reads fewer rows by design, so rows-processed/sec would
    # cancel the win; the guarded quantity is query throughput — identical
    # work answered in less wall time.
    speedup = full.wall_seconds / max(pruned.wall_seconds, 1e-12)
    table_rows = plain_db.catalog.table("trades").row_count
    result = ExperimentResult(
        experiment_id="partition-pruning-speedup",
        title=(
            f"zone-map pruning ({NUM_PARTITIONS} range shards) vs full scan, "
            f"selective stocks query (best of {BEST_OF})"
        ),
        headers=["storage", "rows_processed", "wall_ms", "table_rows_per_sec"],
    )
    for label, execution in (("partitioned", pruned), ("single-shard", full)):
        result.add_row(
            label,
            execution.rows_processed,
            execution.wall_seconds * 1e3,
            table_rows / max(execution.wall_seconds, 1e-12),
        )
    result.metadata["speedup"] = speedup
    result.add_note(f"speedup: {speedup:.1f}x (floor: {SPEEDUP_FLOOR}x)")
    print_experiment(result)
    recorder.record("storage.pruning_speedup", speedup, direction="higher")
    recorder.record("storage.partitions", NUM_PARTITIONS, direction="info")
    recorder.record(
        "storage.pruned_rows_processed", pruned.rows_processed, direction="info"
    )

    # Guard 3: skipping 15 of 16 shards is measurably faster.
    assert speedup >= SPEEDUP_FLOOR, (
        f"pruned scan only {speedup:.2f}x faster than the full scan "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
