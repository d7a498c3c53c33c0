"""Re-optimization pin: what the re-optimization loop did and charged, step by step.

``tests/golden/reopt_pins.json`` was generated by
``tests/golden/gen_reopt_pins.py`` at the commit before a rewrite-loop round
became one staged run (stop at the trigger, hand its rows to the temp table),
when every round still executed the whole plan and the trigger sub-join a
second time.  The 113 JOB statements run under three trigger policies of the
rewrite loop, and under the default policy with the in-memory (adaptive)
handover, pinned since the commit before the two loops became one; every
step's trigger, estimate, actual, Q-error, temp-table rows, charged and
materialization work and ``CREATE TEMP TABLE`` text, and every statement's
total charged work and final rows, must stay what that commit produced —
they are the simulated seconds of the gated paper figures.
"""

from __future__ import annotations

import importlib.util
import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_reopt_pins", os.path.join(GOLDEN_DIR, "gen_reopt_pins.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_job_reoptimization_steps_and_charged_work_match_the_golden_file():
    generator = _load_generator()
    with open(generator.PINS_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    # Through JSON, so tuples and floats compare the way the file stores them.
    recorded = json.loads(json.dumps(generator.record_reoptimizations()))

    assert sorted(golden) == sorted(generator.POLICIES)
    reoptimized = {}
    for policy, expected in golden.items():
        assert len(expected) == 113
        assert sorted(recorded[policy]) == sorted(expected)
        for name, pin in expected.items():
            assert recorded[policy][name] == pin, (
                f"re-optimization accounting moved for {name} under {policy!r}"
            )
        reoptimized[policy] = {name for name, pin in expected.items() if pin["steps"]}
    # The pins must exercise what they claim to: the ablation picks another
    # join somewhere, and the cutoff skips statements the default rewrites.
    assert reoptimized["default"]
    assert golden["highest"] != golden["default"]
    assert reoptimized["min_query_seconds"] < reoptimized["default"]
    # The in-memory handover re-plans too, and never charges a write-out.
    assert reoptimized["adaptive"]
    assert all(
        step["materialize_work"] == 0.0
        for pin in golden["adaptive"].values()
        for step in pin["steps"]
    )
