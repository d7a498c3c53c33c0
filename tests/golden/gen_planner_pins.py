"""Generate ``planner_pins.json``: what the optimizer decided, plan by plan.

Runs the 113 JOB statements through a default ``repro.connect()`` session
(the paper's materialize-and-rewrite loop) over a small synthetic IMDB
database, once per cardinality estimator (``EngineSettings.estimator``, each
on a freshly built database so the feedback store starts cold), and records
every ``Optimizer.plan`` call — the first-round plan of each statement and
every re-plan of its rewrite loop — as the SHA-1 of its EXPLAIN text plus the
three planning counters the simulated planning time is charged from.  The
file maps estimator name → statement name → calls.

``tests/test_optimizer_plan_pins.py`` replays :func:`record_plans` per
estimator and compares with the checked-in file, so a change to the
enumerator, an estimator or ANALYZE that moves a single plan or counter fails
there.  Regenerate only on a commit whose plans are *meant* to differ::

    PYTHONPATH=src python tests/golden/gen_planner_pins.py
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List

import repro
from repro.engine.settings import ESTIMATOR_NAMES, EngineSettings
from repro.executor.explain import explain_plan
from repro.workloads import (
    ImdbConfig,
    JobWorkloadConfig,
    build_imdb_database,
    generate_job_workload,
)

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "planner_pins.json")
IMDB = ImdbConfig(scale=0.15, seed=42)
JOB = JobWorkloadConfig(seed=7)


def record_plans(estimator: str) -> Dict[str, List[dict]]:
    """Every planner call of the workload under ``estimator``, keyed by
    statement name, in call order."""
    db, dataset = build_imdb_database(IMDB, settings=EngineSettings(estimator=estimator))
    calls: List[dict] = []
    plan = db.optimizer.plan

    def recording_plan(query, injector=None):
        planned = plan(query, injector=injector)
        stats = planned.stats
        calls.append(
            {
                "explain_sha1": hashlib.sha1(
                    explain_plan(planned.plan).encode("utf-8")
                ).hexdigest(),
                "candidates_considered": stats.candidates_considered,
                "estimate_calls": stats.estimate_calls,
                "planning_work": stats.planning_work,
            }
        )
        return planned

    db.optimizer.plan = recording_plan
    pins: Dict[str, List[dict]] = {}
    conn = repro.connect(db)
    try:
        for query in generate_job_workload(dataset.vocabulary, JOB):
            calls.clear()
            conn.execute(query.sql)
            pins[query.name] = list(calls)
    finally:
        conn.close()
    return pins


if __name__ == "__main__":
    recorded = {name: record_plans(name) for name in ESTIMATOR_NAMES}
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for name, pins in recorded.items():
        calls = sum(len(statement) for statement in pins.values())
        print(f"{name}: {len(pins)} statements, {calls} planner calls")
    print(f"-> {PINS_PATH}")
