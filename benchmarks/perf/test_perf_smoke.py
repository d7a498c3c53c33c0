"""Tier-1 smoke test of the wall-clock ledger (``run.py --smoke``).

Checks the harness, not the engine's speed: every metric ``BENCHMARK.json``
declares is emitted (and nothing else; a row leaves out only the layers its
workload cannot observe), every workload's rows match the oracle, the
counts the program makes repeat exactly, rows are identified by
a stable config hash, and the two cache-bypass workloads really bypass.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys

import pytest

from compare import compare
from ledger import PERF_DIR, config_id, load_spec, metric_units
from ledger_workloads import WORKLOADS

RUN = os.path.join(PERF_DIR, "run.py")
EXACT = (
    "executor.sim_exec_s",
    "core.replans",
    "optimizer.candidates_considered",
    "storage.segments_skipped",
)


@pytest.fixture(scope="module")
def spec():
    return load_spec()


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "ledger.json"
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--out", str(out)],
        check=True, capture_output=True, text=True,
    )
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    report["stdout"] = done.stdout
    return report


def test_declared_metrics_are_exactly_the_emitted_ones(spec, ledger):
    assert [row["workload"] for row in ledger["rows"]] == [
        w["name"] for w in spec["workloads"]
    ]
    for row in ledger["rows"]:
        assert set(row["end_to_end"]) == set(metric_units(spec, "end_to_end"))
        for section in ("end_to_end", "per_layer"):
            declared = metric_units(spec, section)
            for name, metric in row[section].items():
                assert metric["unit"] == declared[name]
                assert math.isfinite(metric["value"]), (row["workload"], name)
                # Printed by name with its unit.
                assert f"  {name} " in ledger["stdout"]
        for metric in spec["end_to_end"]:
            assert row["end_to_end"][metric["name"]]["value"] > 0
    # A row leaves out exactly the layers its workload cannot observe: the
    # server on a library workload, statement contexts on the server.
    layers = {row["workload"]: set(row["per_layer"]) for row in ledger["rows"]}
    declared = set(metric_units(spec, "per_layer"))
    served = layers.pop("server_churn")
    assert served | layers["job_cold"] == declared
    for emitted in layers.values():
        assert emitted == layers["job_cold"]
        assert not any(name.startswith("server.") for name in emitted)
    assert "core.replans" not in served and "trace.overhead_pct" not in served


def test_every_workload_matches_its_oracle(ledger):
    for row in ledger["rows"]:
        assert row["failed_share"] == 0, (row["workload"], row["mismatched"])
        assert row["correct"] and row["attempted"] > 0


def test_cache_bypass_workloads_bypass(ledger):
    layers = {row["workload"]: row["per_layer"] for row in ledger["rows"]}
    assert layers["job_hot"]["engine.plancache_misses"]["value"] == 0
    assert layers["job_hot"]["engine.plancache_hits"]["value"] > 0
    assert layers["job_cold"]["engine.plancache_hits"]["value"] == 0
    # Every statement of a cold pass is planned: no cache to answer for it.
    assert (
        layers["job_cold"]["optimizer.plan_calls"]["value"]
        == layers["job_cold"]["sql.statements"]["value"]
        > 0
    )
    assert layers["wide_scan"]["core.replans"]["value"] == 0
    assert layers["wide_scan"]["storage.segments_skipped"]["value"] > 0


def test_exact_counters_repeat(ledger):
    # server_churn's exact counters are pinned by the checked-in readings.
    rows = [row for row in ledger["rows"] if row["workload"] != "server_churn"]
    running = [
        subprocess.Popen(
            [sys.executable, RUN, "--smoke", "--workload", row["workload"], "--trace", "1"],
            stdout=subprocess.PIPE, text=True,
        )
        for row in rows
    ]
    for row, process in zip(rows, running):
        stdout, _ = process.communicate(timeout=60)
        assert process.returncode == 0
        again = json.loads(stdout.splitlines()[-1])
        assert set(again) == {"correct", "attempted", "failed", "metrics"}
        # The contract's line carries every declared metric.
        assert set(again["metrics"]) == set(metric_units(load_spec(), "per_layer"))
        for key in EXACT:
            assert again["metrics"][key] == row["per_layer"][key], (row["workload"], key)


def test_config_id_identifies_the_configuration():
    a = WORKLOADS["stocks_agg"](seed=42, smoke=True).config()
    b = WORKLOADS["stocks_agg"](seed=42, smoke=True).config()
    assert config_id(a) == config_id(b)
    assert len(config_id(a)) == 12
    b["engine_settings"]["plan_cache_size"] += 1
    assert config_id(a) != config_id(b)
    assert config_id(a) != config_id(WORKLOADS["stocks_agg"](seed=1, smoke=True).config())


def test_checked_in_readings_agree(spec):
    readings = []
    for name in ("seed42-a.json", "seed42-b.json"):
        with open(os.path.join(PERF_DIR, "readings", name), encoding="utf-8") as handle:
            readings.append(json.load(handle))
    out = io.StringIO()
    assert compare(readings[0], readings[1], spec, out=out) == 0, out.getvalue()
    assert "exact counters: identical" in out.getvalue()
    readings[1]["rows"][0]["config_id"] = "0" * 12
    assert compare(readings[0], readings[1], spec, out=io.StringIO()) == 2
