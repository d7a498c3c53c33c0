"""Planner pin: the optimizer's decisions and charged work, plan by plan.

``tests/golden/planner_pins.json`` was generated by
``tests/golden/gen_planner_pins.py`` at the commit before the enumerator
started costing candidates as floats (one ``JoinNode`` per kept subset, DP-table
connectivity, index-drawn ANALYZE samples, one-sort column statistics).  The
113 JOB statements run through the default rewrite loop; the first-round plan
and every re-plan must keep its EXPLAIN text and its ``candidates_considered``
/ ``estimate_calls`` / ``planning_work`` — the latter are charged as simulated
planning time inside the gated paper figures.
"""

from __future__ import annotations

import importlib.util
import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_planner_pins", os.path.join(GOLDEN_DIR, "gen_planner_pins.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_job_plans_and_planning_counters_match_the_golden_file():
    generator = _load_generator()
    with open(generator.PINS_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    recorded = generator.record_plans()

    assert len(golden) == 113
    assert sorted(recorded) == sorted(golden)
    assert sum(len(calls) - 1 for calls in golden.values()) > 0, "no re-plan pinned"
    for name, expected in golden.items():
        assert recorded[name] == expected, f"planner decisions moved for {name}"
