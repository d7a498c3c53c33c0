"""Paired A/B of one ledger workload: a parent commit against this tree.

The protocol of ``benchmarks/perf/README.md``, typed once::

    python tools/perf_ab.py --workload job_hot --parent HEAD~1 --pairs 10 --seed 100

The parent is exported with ``git archive`` into a temporary directory (as
``make pins`` does), so both sides run from their own ``src/`` and their own
``benchmarks/perf/``.  Each pair is two single runs of
``benchmarks/perf/run.py --workload W --seed S --trace 0`` — pair ``k`` at
seed ``S + k`` on both sides, the side that goes first alternating — and a
pair whose two ``config_id``s differ is refused: the sides did not measure
the same thing.  Per end-to-end metric the report gives each side's median
and quartiles, the pairs the change won, and whether the gap between the
medians exceeds the parent's own interquartile range; a gain may be claimed
when it wins at least nine pairs in ten and the gap does.

``--layers storage.load_s,stats.analyze_s`` adds a traced run (``--trace 1``)
to each side of every pair and prints the same table for those per-layer
metrics of its contract line — where a gap sits, not only how large it is.
``--metric`` picks what the per-pair progress line shows (default
``pass_wall_s``; any end-to-end metric or one of the layers).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export_parent(revision: str, directory: str) -> None:
    """Unpack ``revision``'s committed files into ``directory``."""
    archive = subprocess.run(
        ["git", "archive", revision], cwd=REPO, check=True, capture_output=True
    )
    subprocess.run(["tar", "-x", "-C", directory], input=archive.stdout, check=True)


def run_once(
    tree: str, workload: str, seed: int, seconds: float, trace: int = 0
) -> Tuple[dict, dict]:
    """One single run in ``tree``: its ledger row and the contract line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = [
        sys.executable, os.path.join("benchmarks", "perf", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=tree, env=env, check=True, capture_output=True, text=True
    )
    row, contract = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    if not contract["correct"] or contract["failed"]:
        raise SystemExit(f"{tree}: seed {seed}: {contract['failed']} failed, "
                         f"correct={contract['correct']}")
    return row, contract


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(
    metrics: List[dict], parent: Dict[str, List[float]], change: Dict[str, List[float]]
) -> None:
    width = max(14, *(len(metric["name"]) for metric in metrics))
    print(f"{'metric':{width}s} {'parent q1/median/q3':>32s} {'change q1/median/q3':>32s} "
          f"{'gap':>8s} {'wins':>6s}  gap > parent IQR")
    for metric in metrics:
        name = metric["name"]
        a, b = parent[name], change[name]
        lower = metric["better"] == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        losses = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        gap = qb[1] - qa[1]
        resolved = abs(gap) > qa[2] - qa[0]
        share = f"{gap / qa[1]:+8.1%}" if qa[1] else f"{gap:+8.3g}"
        print(
            f"{name:{width}s} {qa[0]:10.4g}/{qa[1]:10.4g}/{qa[2]:10.4g} "
            f"{qb[0]:10.4g}/{qb[1]:10.4g}/{qb[2]:10.4g} {share} "
            f"{wins:3d}/{wins + losses:<2d}  {'yes' if resolved else 'no'}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", default="HEAD~1", help="revision to compare with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair; pair k runs at seed + k")
    parser.add_argument("--layers", default="",
                        help="comma-separated per-layer metrics, read from a traced run")
    parser.add_argument("--metric", default="pass_wall_s",
                        help="metric on the per-pair progress line")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {m["name"]: m for m in spec["per_layer"]}
    layers = [name for name in args.layers.split(",") if name]
    unknown = sorted(set(layers) - set(declared))
    if unknown:
        parser.error(f"--layers: not a per-layer metric of BENCHMARK.json: {unknown}")
    sections = [(0, spec["end_to_end"])]
    if layers:
        sections.append((1, [declared[name] for name in layers]))
    parent: Dict[str, List[float]] = {m["name"]: [] for _, ms in sections for m in ms}
    change: Dict[str, List[float]] = {name: [] for name in parent}
    if args.metric not in parent:
        parser.error(f"--metric {args.metric!r} is neither end-to-end nor one of --layers")
    with tempfile.TemporaryDirectory(prefix="perf-ab-") as parent_tree:
        export_parent(args.parent, parent_tree)
        for pair in range(args.pairs):
            seed = args.seed + pair
            sides = [(parent_tree, parent), (REPO, change)]
            if pair % 2:
                sides.reverse()
            for trace, metrics in sections:
                ids = {}
                for tree, into in sides:
                    row, contract = run_once(
                        tree, args.workload, seed, spec["run_seconds"], trace
                    )
                    ids[tree] = row["config_id"]
                    for metric in metrics:
                        into[metric["name"]].append(
                            contract["metrics"][metric["name"]]["value"]
                        )
                if len(set(ids.values())) != 1:
                    raise SystemExit(
                        f"seed {seed}: config_id differs between the sides: {ids}"
                    )
            print(f"pair {pair + 1}/{args.pairs} seed {seed}: {args.metric} "
                  f"{parent[args.metric][-1]:.4f} -> {change[args.metric][-1]:.4f}",
                  flush=True)
    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}, "
          f"parent {args.parent} -> working tree")
    for _, metrics in sections:
        report(metrics, parent, change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
