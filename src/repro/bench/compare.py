"""CI benchmark-trajectory gate: compare ``BENCH_pr.json`` to the baseline.

Usage (exactly what the CI benchmark job runs)::

    python -m repro.bench.compare BENCH_baseline.json BENCH_pr.json \
        --max-regression 0.20

Every gated metric in the baseline (``direction`` of ``"lower"`` or
``"higher"``) must be present in the PR report and must not move more than
``--max-regression`` (relative) in the worse direction; ``"info"`` metrics —
wall-clock quantities that vary across CI runners — are printed for the
record but never fail the job.  The gated metrics are simulated work/time
quantities, which are deterministic for a given scale, so the gate is stable
across machines.

Exit status: 0 when every gated metric passes, 1 otherwise, and 2 when a
report file is missing (``make bench`` writes one only when
``REPRO_BENCH_REPORT`` names it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple


def load_report(path: str) -> Dict[str, object]:
    """Load one ``BENCH_*.json`` report (must have a ``metrics`` section)."""
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    if not isinstance(report.get("metrics"), dict):
        raise ValueError(f"{path} has no 'metrics' section")
    return report


def compare_metrics(
    baseline: Dict[str, Dict[str, object]],
    current: Dict[str, Dict[str, object]],
    max_regression: float,
) -> Tuple[List[str], List[str]]:
    """Compare two metric sets; returns ``(report_lines, failures)``."""
    lines: List[str] = []
    failures: List[str] = []
    for key in sorted(baseline):
        base_entry = baseline[key]
        base = float(base_entry["value"])
        direction = str(base_entry.get("direction", "info"))
        entry = current.get(key)
        if entry is None:
            if direction == "info":
                lines.append(f"  {key}: missing from PR report (info, ignored)")
            else:
                failures.append(f"{key}: gated metric missing from PR report")
            continue
        value = float(entry["value"])
        delta_pct: Optional[float] = None
        if base != 0.0:
            delta_pct = 100.0 * (value - base) / abs(base)
        delta_text = "n/a" if delta_pct is None else f"{delta_pct:+.1f}%"
        lines.append(
            f"  {key}: baseline={base:g} current={value:g} "
            f"delta={delta_text} [{direction}]"
        )
        if direction == "info":
            continue
        if base == 0.0:
            # Relative regression against zero is undefined; make the hole
            # visible instead of silently passing.
            lines.append(f"  {key}: baseline is 0, not gated")
            continue
        if direction == "lower" and value > base * (1.0 + max_regression):
            failures.append(
                f"{key}: {value:g} is more than "
                f"{max_regression:.0%} worse than baseline {base:g}"
            )
        elif direction == "higher" and value < base * (1.0 - max_regression):
            failures.append(
                f"{key}: {value:g} is more than "
                f"{max_regression:.0%} worse than baseline {base:g}"
            )
    for key in sorted(set(current) - set(baseline)):
        value = current[key]["value"]
        lines.append(f"  {key}: new metric (no baseline), current={value:g}")
    return lines, failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.compare", description=__doc__
    )
    parser.add_argument("baseline", help="checked-in BENCH_baseline.json")
    parser.add_argument("current", help="freshly generated BENCH_pr.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="maximum tolerated relative regression on gated metrics "
        "(default: 0.20)",
    )
    args = parser.parse_args(argv)

    for path in (args.baseline, args.current):
        if not os.path.exists(path):
            print(
                f"FAIL: {path} not found; write it with "
                f"`REPRO_BENCH_SCALE=0.3 REPRO_BENCH_REPORT={path} make bench`"
            )
            return 2
    baseline_report = load_report(args.baseline)
    current_report = load_report(args.current)
    base_scale = baseline_report.get("meta", {}).get("scale")
    current_scale = current_report.get("meta", {}).get("scale")
    if base_scale != current_scale:
        # Simulated metrics are only comparable at the same workload scale.
        print(
            f"FAIL: incomparable reports — baseline scale={base_scale} "
            f"vs current scale={current_scale}; regenerate the baseline "
            "at the current REPRO_BENCH_SCALE"
        )
        return 1
    baseline = baseline_report["metrics"]
    current = current_report["metrics"]
    lines, failures = compare_metrics(baseline, current, args.max_regression)
    print(f"benchmark trajectory: {args.current} vs {args.baseline}")
    for line in lines:
        print(line)
    if failures:
        print(f"\nFAIL: {len(failures)} metric(s) regressed beyond "
              f"{args.max_regression:.0%}:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nOK: no gated metric regressed beyond "
          f"{args.max_regression:.0%}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
