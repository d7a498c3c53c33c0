"""The wall-clock ledger: five workloads, end to end and layer by layer.

Two modes, one measuring code path:

* **Ledger** (no ``--trace``): every workload runs twice, each time in a
  subprocess of its own — untraced for the end-to-end numbers, then traced
  for the per-layer numbers — and the readings are printed by name with
  their units and written as one JSON report::

      python benchmarks/perf/run.py [--seed 42] [--workload NAME] [--out FILE]

* **Single run** (``--trace 0|1``, what ``BENCHMARK.json``'s command is
  invoked with): one workload, one subprocess-free run for ``--seconds``;
  prints its ledger row as one JSON line, then the contract's JSON object
  as the last line of standard output.

See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(PERF_DIR)), "src"))

from ledger import (  # noqa: E402
    CALIB_DRIFT_LIMIT,
    calibrate,
    config_id,
    load_spec,
    median,
    metric_units,
    peak_rss_mib,
    percentile,
)

SNAPSHOT_SAMPLES = 200


# -- one measured run ------------------------------------------------------------


def run_single(args: argparse.Namespace) -> dict:
    """Measure one workload once; returns the ledger row."""
    from ledger_trace import SpanRecorder, write_spans
    from ledger_workloads import WORKLOADS, ServerSessionPair, median_timings

    spec = load_spec()
    traced = bool(args.trace)
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)

    start = time.perf_counter()
    workload.generate()
    datagen_s = time.perf_counter() - start

    # The calibration loop brackets the two timed phases: builds and passes
    # (one loop each under --smoke, whose timings mean nothing).
    loops = 1 if args.smoke else 15
    calib = [calibrate(loops)]
    builds = []
    db = None
    for _ in range(workload.setup_repeats):
        db = None  # drop the previous build before the next one is timed
        gc.collect()
        db, timings = workload.build()
        builds.append(timings)
    setup = median_timings(builds)
    calib.append(calibrate(loops))

    recorder = SpanRecorder() if traced else None
    sessions = [workload.start(db, recorder)]
    served = isinstance(sessions[0], ServerSessionPair)
    if traced and not served:
        # An untraced twin takes every other pass, so both see the same
        # machine state and their difference is the tracing overhead.  Not on
        # the server: it takes no interceptor, so a twin would be the same
        # session again, and two servers on one database would churn each
        # other's plan cache.
        sessions.append(workload.start(db, None))
    try:
        for session in sessions:
            for _ in range(workload.warmups):
                session.run_pass()
        if traced:
            recorder.spans.clear()
        before = sessions[0].counters()
        passes: List[list] = [[] for _ in sessions]
        begin = time.perf_counter()
        turn = 0
        while turn < len(sessions) or time.perf_counter() - begin < args.seconds:
            group = passes[turn % len(sessions)]
            if group:
                # Only the last pass is checked; keeping every pass's rows
                # would grow the heap with the number of passes.
                group[-1].rows.clear()
            gc.collect()
            group.append(sessions[turn % len(sessions)].run_pass())
            turn += 1
        timed_s = time.perf_counter() - begin
        rss = peak_rss_mib()
        delta = _delta(before, sessions[0].counters())
        calib.append(calibrate(loops))
    finally:
        for session in sessions:
            session.close()

    walls = [wall for p in passes[-1] for wall in p.walls]
    latencies = [latency for p in passes[-1] for latency in p.latencies]
    attempted = sum(len(p.latencies) for group in passes for p in group)
    failed = sum(p.failed for group in passes for p in group)
    drift = max(calib) / min(calib) - 1.0
    info = {
        "datagen_s": datagen_s,
        "timed_s": timed_s,
        "passes": len(walls),
        "stmt_samples": len(latencies),
        "setup_samples": len(builds),
        "pass_walls": [round(wall, 5) for wall in walls],
        "calib_drift": drift,
    }

    start = time.perf_counter()
    mismatched = _mismatched(workload, passes[0][-1].rows)
    # The seed's own rows are checked once per ledger row: by the untraced run.
    check = None if traced else workload.seeded_check()
    if check is not None:
        check.generate()
        check_db, _ = check.build()
        session = check.start(check_db, None)
        try:
            result = session.run_pass()
        finally:
            session.close()
        attempted += len(result.latencies)
        failed += result.failed
        mismatched += [f"seeded:{name}" for name in _mismatched(check, result.rows)]
    info["verify_s"] = time.perf_counter() - start
    failed += len(mismatched)

    if traced:
        section = "per_layer"
        unobserved = LIBRARY_ONLY if served else SERVER_ONLY
        values = _per_layer(workload, sessions[0], served, recorder, passes[0], delta, db)
        values.update({key: setup[key] for key in setup if key != "setup_s"})
        if len(sessions) > 1:
            values["trace.overhead_pct"] = (
                median([w for p in passes[0] for w in p.walls]) / median(walls) - 1.0
            ) * 100.0
        values["trace.calib_s"] = min(calib)
        info["traced_passes"] = len(passes[0])
        if args.trace_out:
            write_spans(recorder.spans, args.trace_out)
    else:
        section = "end_to_end"
        unobserved = ()
        values = {
            "setup_s": setup["setup_s"],
            "pass_wall_s": median(walls),
            "stmt_p50_ms": percentile(latencies, 50) * 1e3,
            "stmt_p90_ms": percentile(latencies, 90) * 1e3,
            "peak_rss_mb": rss,
        }
    units = metric_units(spec, section)
    if set(values) != set(units) - set(unobserved):
        raise SystemExit(
            f"{section} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ (set(units) - set(unobserved)))}"
        )

    config = workload.config()
    config["seconds"] = args.seconds
    config["traced"] = traced
    return {
        "workload": workload.name,
        "config": config,
        "config_id": config_id(config),
        "noisy": drift > CALIB_DRIFT_LIMIT,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "mismatched": mismatched,
        section: {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
        "info": info,
    }


def _mismatched(workload, rows: Dict[str, Optional[list]]) -> List[str]:
    """Names of the statements whose ``rows`` differ from the oracle's: every
    statement once on a second database — the reference engine over
    uncompressed storage, no re-optimization loop."""
    import repro
    from repro import EngineSettings

    oracle_db, _ = workload.build(EngineSettings(engine="reference"), compress=False)
    with repro.connect(oracle_db, reoptimize=False) as oracle:
        return [
            s.name
            for s in workload.statements
            if rows[s.name] is not None
            and not _same_rows(
                rows[s.name], oracle.execute(s.sql).fetchall(), s.ordered
            )
        ]


#: A ledger row leaves out the layers its run cannot see: a library workload
#: never crosses the server, and ``Server.session()`` accepts no
#: interceptors, so what needs a statement context (or an untraced twin) is
#: not observable on ``server_churn``.
SERVER_ONLY = (
    "server.execute_stage_s", "server.service_ms_p50", "server.queue_wait_ms_p50",
    "server.shed", "server.errors", "server.stats_percentile_us",
    "stats.analyze_churn_ms",
)
LIBRARY_ONLY = (
    "optimizer.estimate_calls", "optimizer.candidates_considered",
    "optimizer.plan_us_per_candidate", "optimizer.plan_s_ge10_tables",
    "optimizer.q_error_p90", "core.reopt_overhead_s", "core.replans",
    "core.replan_planning_work", "core.rework_share", "core.reopt_gain_pct",
    "executor.operator_s", "executor.rows_processed", "executor.rows_per_s",
    "executor.work_scan", "executor.work_join", "executor.work_agg_sort",
    "storage.partitions_scanned", "storage.partitions_pruned",
    "storage.segments_skipped", "storage.columns_decoded",
    "trace.overhead_pct",
)


def _per_layer(workload, session, served, recorder, passes, delta, db) -> Dict[str, float]:
    """The traced session's per-pass layer metrics."""
    from ledger_trace import library_layer_metrics

    n = len(passes)
    replay = _replay(workload, db)
    if served:
        out = _server_layers(passes, delta, n, session)
    else:
        contexts = [ctx for p in passes for _, ctx in p.contexts]
        out = library_layer_metrics(recorder.spans, contexts, n)
        out["core.reopt_gain_pct"] = _reopt_gain(passes[-1].contexts, replay)
    lookups = delta["hits"] + delta["misses"]
    out.update({
        "engine.plancache_hits": delta["hits"] / n,
        "engine.plancache_misses": delta["misses"] / n,
        "engine.plancache_evictions": delta["evictions"] / n,
        "engine.plancache_stale_evictions": delta["stale_evictions"] / n,
        "engine.plancache_hit_rate": delta["hits"] / lookups if lookups else 0.0,
        "engine.snapshot_us": _snapshot_us(db),
        "executor.sim_exec_s": delta["sim_exec_s"] / n,
        "executor.replay_execute_s": sum(r["execute_s"] for r in replay.values()),
        "storage.rows_loaded": workload.rows_loaded(),
    })
    return out


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def _server_layers(passes, delta, n: int, pair) -> Dict[str, float]:
    """What a client can see of the server's layers (no interceptor hook).

    Stage seconds come from the sessions' public ``metrics``; there the plan
    stage includes plan-cache keying, and operators cannot be told from the
    adaptive loop, so the execute stage is reported whole.
    """
    service = [s for p in passes for s in p.service]
    waits = [w for p in passes for w in p.queue_wait]
    churn = [c for p in passes for c in p.churn]
    stages = sum(delta.get(stage, 0.0) for stage in ("parse", "bind", "plan", "execute"))
    start = time.perf_counter()
    pair.server.stats.percentile(99.0)
    stats_percentile_s = time.perf_counter() - start
    return {
        "sql.parse_s": delta.get("parse", 0.0) / n,
        "sql.bind_s": delta.get("bind", 0.0) / n,
        "sql.statements": delta["statements"] / n,
        "optimizer.plan_s": delta.get("plan", 0.0) / n,
        "optimizer.plan_calls": delta["misses"] / n,
        "engine.pipeline_self_s": (sum(service) - stages) / n,
        "core.reoptimized_statements": delta["reoptimized"] / n,
        "server.execute_stage_s": delta.get("execute", 0.0) / n,
        "server.service_ms_p50": median(service) * 1e3,
        "server.queue_wait_ms_p50": median(waits) * 1e3,
        "server.shed": delta["shed"],
        "server.errors": delta["errors"],
        "server.stats_percentile_us": stats_percentile_s * 1e6,
        "stats.analyze_churn_ms": median(churn) * 1e3,
    }


def _snapshot_us(db) -> float:
    samples = []
    for _ in range(SNAPSHOT_SAMPLES):
        start = time.perf_counter()
        db.snapshot()
        samples.append(time.perf_counter() - start)
    return median(samples) * 1e6


def _replay(workload, db):
    """Stage-isolated replay: each layer's entry point called directly.

    No pipeline, no cache, no re-optimization loop — so its execute time is
    the operators alone and its simulated time is the statement *without*
    re-optimization.  Returns the timings by statement name.
    """
    from repro.sql import parse_select

    timings = {}
    for statement in workload.statements:
        t0 = time.perf_counter()
        parsed = parse_select(statement.sql, name=statement.name)
        t1 = time.perf_counter()
        bound = db.binder.bind(parsed)
        t2 = time.perf_counter()
        planned = db.plan(bound)
        t3 = time.perf_counter()
        execution = db.execute_plan(planned)
        t4 = time.perf_counter()
        timings[statement.name] = {
            "parse_s": t1 - t0,
            "bind_s": t2 - t1,
            "plan_s": t3 - t2,
            "execute_s": t4 - t3,
            "sim_total_s": planned.stats.planning_seconds
            + execution.simulated_seconds,
        }
    return timings


def _reopt_gain(contexts, replay) -> float:
    """The paper's headline: simulated seconds saved on the 20 longest
    statements (longest *without* re-optimization) by re-optimizing."""
    longest = sorted(replay, key=lambda name: -replay[name]["sim_total_s"])[:20]
    with_reopt = {name: ctx.total_seconds for name, ctx in contexts}
    without = sum(replay[name]["sim_total_s"] for name in longest)
    if not without or any(name not in with_reopt for name in longest):
        return 0.0
    return (1.0 - sum(with_reopt[name] for name in longest) / without) * 100.0


def _row_key(row: tuple) -> tuple:
    return tuple((value is None, value) for value in row)


def _same_rows(got: list, expected: list, ordered: bool) -> bool:
    got, expected = [tuple(r) for r in got], [tuple(r) for r in expected]
    if ordered:
        return got == expected
    return sorted(got, key=_row_key) == sorted(expected, key=_row_key)


# -- the ledger: every workload, both runs ---------------------------------------


def run_ledger(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds
    if seconds is None:
        seconds = 0 if args.smoke else spec["run_seconds"]
    out_path = args.out or os.path.join(
        tempfile.gettempdir(),
        f"perf-ledger-seed{args.seed}{'-smoke' if args.smoke else ''}.json",
    )
    if args.trace_out:
        os.makedirs(args.trace_out, exist_ok=True)
    rows = []
    for name in names:
        running, halves = [], []
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            if args.smoke:
                command.append("--smoke")
            if trace and args.trace_out:
                command += [
                    "--trace-out", os.path.join(args.trace_out, f"{name}.spans.jsonl")
                ]
            # One subprocess per run: peak RSS and every cache are the
            # workload's own.  Runs take turns, except under --smoke, whose
            # timings mean nothing and which tier-1 waits for.
            running.append(subprocess.Popen(command, stdout=subprocess.PIPE, text=True))
            if not args.smoke:
                halves.append(_finished_row(running.pop()))
        halves += [_finished_row(process) for process in running]
        rows.append(_merge(*halves))
        _print_row(rows[-1])
    ledger = {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": seconds,
        "rows": rows,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"ledger written to {out_path}")
    return 0 if all(row["correct"] for row in rows) else 1


def _finished_row(process: subprocess.Popen) -> dict:
    """Wait for a single run; it prints its ledger row, then the contract's line."""
    stdout, _ = process.communicate()
    if process.returncode:
        raise SystemExit(f"a run failed: {' '.join(process.args)}")
    return json.loads(stdout.splitlines()[-2])


def _merge(untraced: dict, traced: dict) -> dict:
    """One ledger row from a workload's untraced and traced runs."""
    config = dict(untraced["config"])
    del config["traced"]
    return {
        "workload": untraced["workload"],
        "config": config,
        "config_id": config_id(config),
        "noisy": untraced["noisy"] or traced["noisy"],
        "correct": untraced["correct"] and traced["correct"],
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "failed_share": (untraced["failed"] + traced["failed"])
        / (untraced["attempted"] + traced["attempted"]),
        "mismatched": untraced["mismatched"] + traced["mismatched"],
        "end_to_end": untraced["end_to_end"],
        "per_layer": traced["per_layer"],
        "info": {"untraced": untraced["info"], "traced": traced["info"]},
    }


def _print_row(row: dict) -> None:
    info = row["info"]["untraced"]
    flag = "  [noisy]" if row["noisy"] else ""
    print(f"== {row['workload']}  config {row['config_id']}{flag}")
    samples = {
        "setup_s": info["setup_samples"],
        "pass_wall_s": info["passes"],
        "stmt_p50_ms": info["stmt_samples"],
        "stmt_p90_ms": info["stmt_samples"],
    }
    for name, metric in row["end_to_end"].items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}{count}")
    print(
        f"  {'failed_share':36s} {row['failed_share']:14.4f} ratio"
        f"  ({row['failed']} of {row['attempted']})"
    )
    for name, metric in row["per_layer"].items():
        print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}")
    for key in ("datagen_s", "verify_s", "timed_s"):
        print(f"  info.{key:31s} {info[key]:14.4f} s")
    sys.stdout.flush()


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=PERF_DIR, check=True, capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


# -- entry point -------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="single run: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one pass: checks the harness, not the engine")
    parser.add_argument("--out", help="ledger: report file (default: in the temp dir)")
    parser.add_argument("--trace-out",
                        help="span JSONL: a file (single run) or a directory (ledger)")
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_ledger(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    if args.seconds is None:
        args.seconds = 0 if args.smoke else load_spec()["run_seconds"]
    row = run_single(args)
    section = "per_layer" if args.trace else "end_to_end"
    for metric in row[section].values():
        if not math.isfinite(metric["value"]):
            raise SystemExit(f"non-finite metric in {row['workload']}: {row[section]}")
    print(json.dumps(row))
    # The contract wants every declared metric on this line, so here, and
    # only here, a layer the run cannot see reads 0; the ledger row above
    # leaves it out.
    units = metric_units(load_spec(), section)
    print(json.dumps({
        "correct": row["correct"],
        "attempted": row["attempted"],
        "failed": row["failed"],
        "metrics": {
            name: row[section].get(name, {"value": 0.0, "unit": unit})
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
