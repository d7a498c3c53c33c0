"""Generate ``reopt_pins.json``: what the re-optimization loop did and charged, step by step.

Runs the 113 JOB statements through the re-optimization loop over a small
synthetic IMDB database, once per entry of :data:`POLICIES` (the paper's
materialize-and-rewrite loop under the default policy, the
``trigger_site="highest"`` ablation and a ``min_query_seconds`` cutoff that
skips some of the statements the default re-optimizes, plus the default
policy with the in-memory adaptive handover), and records every re-optimization step — trigger, estimate,
actual, Q-error, temp-table rows, charged and materialization work, the
``CREATE TEMP TABLE`` text — plus the statement's total charged execution and
planning work and its final rows.

``tests/test_reopt_pins.py`` replays :func:`record_reoptimizations` and
compares with the checked-in file, so a change to *how* a round is executed
that moves a single trigger or charged unit fails there.  Regenerate only on
a commit whose re-optimization accounting is *meant* to differ::

    PYTHONPATH=src python tests/golden/gen_reopt_pins.py
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict

from repro.core import ReoptimizationInterceptor, ReoptimizationPolicy
from repro.engine import QueryPipeline
from repro.workloads import (
    ImdbConfig,
    JobWorkloadConfig,
    build_imdb_database,
    generate_job_workload,
)

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reopt_pins.json")
IMDB = ImdbConfig(scale=0.15, seed=42)
JOB = JobWorkloadConfig(seed=7)
#: ``label -> (policy knobs, adaptive)``; ``adaptive`` picks the handover the
#: interceptor runs (in-memory pseudo-table instead of a temp table).
POLICIES = {
    "default": ({}, False),
    "highest": ({"trigger_site": "highest"}, False),
    "min_query_seconds": ({"min_query_seconds": 0.15}, False),
    "adaptive": ({}, True),
}


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def record_reoptimizations() -> Dict[str, Dict[str, dict]]:
    """Every statement's report under every policy: ``pins[policy][statement]``."""
    pins: Dict[str, Dict[str, dict]] = {}
    for label, (knobs, adaptive) in POLICIES.items():
        # A fresh database per policy, so temp-table names (part of the
        # pinned CREATE text) do not depend on which policies ran before.
        db, dataset = build_imdb_database(IMDB)
        pipeline = QueryPipeline(
            db, [ReoptimizationInterceptor(ReoptimizationPolicy(**knobs), adaptive=adaptive)]
        )
        pins[label] = {}
        for query in generate_job_workload(dataset.vocabulary, JOB):
            report = pipeline.run(bound=db.parse(query.sql, name=query.name)).report
            pins[label][query.name] = {
                "steps": [
                    {
                        "trigger_label": step.trigger_label,
                        "trigger_aliases": list(step.trigger_aliases),
                        "estimated_rows": step.estimated_rows,
                        "actual_rows": step.actual_rows,
                        "q_error": step.q_error,
                        "temp_rows": step.temp_rows,
                        "charged_work": step.charged_work,
                        "materialize_work": step.materialize_work,
                        "create_sql_sha1": _sha1(step.create_sql),
                    }
                    for step in report.steps
                ],
                "total_execution_work": report.total_execution_work,
                "total_planning_work": report.total_planning_work,
                "row_count": len(report.rows),
                # The multiset of rows: ties may legitimately keep plan order.
                "rows_sha1": _sha1(repr(sorted(report.rows, key=repr))),
            }
    return pins


if __name__ == "__main__":
    recorded = record_reoptimizations()
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for label, statements in recorded.items():
        steps = sum(len(pin["steps"]) for pin in statements.values())
        reoptimized = sum(1 for pin in statements.values() if pin["steps"])
        print(f"{label}: {len(statements)} statements, {reoptimized} re-optimized, {steps} steps")
    print(f"-> {PINS_PATH}")
