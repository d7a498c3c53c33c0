"""Ablations of the re-optimization design choices called out in DESIGN.md.

* trigger site: materializing the lowest vs the highest violating join;
* temp-table statistics: re-planning with vs without ANALYZE on the
  materialized table;
* the materializing simulation vs the adaptive executor's in-memory
  mid-query re-optimization (the paper's future-work variant).
"""

from repro.bench.experiments import (
    ablation_midquery,
    ablation_temp_table_stats,
    ablation_trigger_site,
)

from conftest import print_experiment


def test_ablation_trigger_site(benchmark, context):
    result = benchmark.pedantic(
        ablation_trigger_site, args=(context,), rounds=1, iterations=1
    )
    print_experiment(result)
    execs = dict(zip(result.column("variant"), result.column("execute_s")))
    # Both variants are functional; the paper's lowest-join choice must not be
    # dramatically worse than the alternative.
    assert execs["reopt-lowest"] <= execs["reopt-highest"] * 1.5


def test_ablation_temp_table_stats(benchmark, context):
    result = benchmark.pedantic(
        ablation_temp_table_stats, args=(context,), rounds=1, iterations=1
    )
    print_experiment(result)
    execs = dict(zip(result.column("variant"), result.column("execute_s")))
    # Re-planning with fresh statistics on the temporary table should not lose
    # to re-planning blind by a large margin.
    assert execs["reopt-analyze"] <= execs["reopt-no-analyze"] * 1.25


def test_ablation_midquery_vs_materializing(benchmark, context):
    result = benchmark.pedantic(
        ablation_midquery, args=(context,), rounds=1, iterations=1
    )
    print_experiment(result)
    execs = dict(zip(result.column("variant"), result.column("execute_s")))
    # The adaptive loop never pays the materialization surcharge, so it is at
    # least as fast as the paper's materializing simulation.
    assert execs["adaptive-32"] <= execs["reopt-32"] * 1.01
