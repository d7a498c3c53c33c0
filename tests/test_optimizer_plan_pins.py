"""Planner pin: the optimizer's decisions and charged work, plan by plan.

``tests/golden/planner_pins.json`` is generated by
``tests/golden/gen_planner_pins.py``: per cardinality estimator, the 113 JOB
statements run through the default rewrite loop, and the first-round plan
and every re-plan must keep its EXPLAIN text and its
``candidates_considered`` / ``estimate_calls`` / ``planning_work`` — the
latter are charged as simulated planning time inside the gated paper
figures.  The ``"stats"`` entry dates from the commit before the enumerator
started costing candidates as floats; the other three were added before the
estimators became cardinality injectors, to prove that refactor moved no
plan.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.engine.settings import ESTIMATOR_NAMES

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_planner_pins", os.path.join(GOLDEN_DIR, "gen_planner_pins.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _load_generator()


@pytest.fixture(scope="module")
def golden():
    with open(GENERATOR.PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_estimator_is_pinned(golden):
    assert sorted(golden) == sorted(ESTIMATOR_NAMES)


@pytest.mark.parametrize("estimator", ESTIMATOR_NAMES)
def test_job_plans_and_planning_counters_match_the_golden_file(golden, estimator):
    expected_calls = golden[estimator]
    recorded = GENERATOR.record_plans(estimator)

    assert len(expected_calls) == 113
    assert sorted(recorded) == sorted(expected_calls)
    assert sum(len(calls) - 1 for calls in expected_calls.values()) > 0, "no re-plan pinned"
    for name, expected in expected_calls.items():
        assert recorded[name] == expected, f"{estimator}: planner decisions moved for {name}"
