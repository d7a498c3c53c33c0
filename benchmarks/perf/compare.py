"""Compare two ledger reports: ``python benchmarks/perf/compare.py A.json B.json``.

Per workload × end-to-end metric it prints both values, how much worse B is
than A as a share of A, and ``within`` / ``outside`` against the metric's
bound in ``BENCHMARK.json``.  Two readings of one commit are a
repeatability check, where a difference in either direction counts.  Rows
are matched by workload and refused when their ``config_id`` differ —
numbers measured under different settings, sizes or seeds are not
comparable.  The exact counters (counts the program makes, which repeat
exactly on one commit) that changed are listed.  Exit code 1 on any
``outside``, 2 on a refused row.
"""

from __future__ import annotations

import json
import math
import sys
from typing import List

from ledger import load_spec

#: Per-layer metrics that are counts made by the program: equal inputs give
#: equal values, so any change is a real change.  A row is checked on the
#: ones it carries.
EXACT_COUNTERS = (
    "sql.statements",
    "engine.plancache_hits",
    "engine.plancache_misses",
    "engine.plancache_evictions",
    "engine.plancache_stale_evictions",
    "optimizer.plan_calls",
    "optimizer.estimate_calls",
    "optimizer.candidates_considered",
    "optimizer.q_error_p90",
    "core.replans",
    "core.reoptimized_statements",
    "core.replan_planning_work",
    "core.rework_share",
    "core.reopt_gain_pct",
    "executor.rows_processed",
    "executor.work_scan",
    "executor.work_join",
    "executor.work_agg_sort",
    "executor.sim_exec_s",
    "storage.rows_loaded",
    "storage.partitions_scanned",
    "storage.partitions_pruned",
    "storage.segments_skipped",
    "storage.columns_decoded",
    "server.shed",
    "server.errors",
)
#: ... except that two interleaved clients reach the shared plan cache in an
#: order that differs from run to run.
CONCURRENT_WORKLOADS = ("server_churn",)
INTERLEAVING_DEPENDENT = (
    "engine.plancache_hits",
    "engine.plancache_misses",
    "engine.plancache_evictions",
    "engine.plancache_stale_evictions",
    "optimizer.plan_calls",
)


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (< 0: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def compare(a: dict, b: dict, spec: dict, out=sys.stdout) -> int:
    """Print the comparison; returns the exit code."""
    rows_b = {row["workload"]: row for row in b["rows"]}
    same_commit = a["commit"] == b["commit"]
    status = 0
    changed: List[str] = []
    print(
        f"A: commit {a['commit']} seed {a['seed']}    "
        f"B: commit {b['commit']} seed {b['seed']}",
        file=out,
    )
    for row_a in a["rows"]:
        name = row_a["workload"]
        row_b = rows_b.get(name)
        if row_b is None:
            continue
        if row_a["config_id"] != row_b["config_id"]:
            print(
                f"{name}: REFUSED, config_id {row_a['config_id']} != "
                f"{row_b['config_id']}",
                file=out,
            )
            status = max(status, 2)
            continue
        noisy = "  [noisy]" if row_a["noisy"] or row_b["noisy"] else ""
        print(f"{name}  (config {row_a['config_id']}){noisy}", file=out)
        for metric in spec["end_to_end"]:
            key = metric["name"]
            va = row_a["end_to_end"][key]["value"]
            vb = row_b["end_to_end"][key]["value"]
            worse = worse_by(va, vb, metric["better"])
            gap = abs(worse) if same_commit else worse
            verdict = "within" if gap <= metric["bound"] else "outside"
            if verdict == "outside":
                status = max(status, 1)
            print(
                f"  {key:14s} {va:12.4f} {vb:12.4f} {metric['unit']:4s} "
                f"{worse * 100:+7.2f}%  bound {metric['bound'] * 100:.0f}%  {verdict}",
                file=out,
            )
        if row_a["failed"] or row_b["failed"]:
            print(
                f"  failed: {row_a['failed']} of {row_a['attempted']} vs "
                f"{row_b['failed']} of {row_b['attempted']}  outside",
                file=out,
            )
            status = max(status, 1)
        for key in EXACT_COUNTERS:
            if name in CONCURRENT_WORKLOADS and key in INTERLEAVING_DEPENDENT:
                continue
            if key not in row_a["per_layer"] or key not in row_b["per_layer"]:
                continue
            va = row_a["per_layer"][key]["value"]
            vb = row_b["per_layer"][key]["value"]
            # Per-pass values are sums divided by a pass count that differs
            # between runs, so equal counts may differ in the last float bit.
            if not math.isclose(va, vb, rel_tol=1e-9, abs_tol=1e-12):
                changed.append(f"  {name}: {key} {va!r} -> {vb!r}")
    print("exact counters that changed:" if changed else "exact counters: identical", file=out)
    for line in changed:
        print(line, file=out)
    return status


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    return compare(reports[0], reports[1], load_spec())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
