"""Helpers shared by the wall-clock ledger's runner, comparer and smoke test.

Everything here is independent of the engine except
:func:`resolve_settings`, which flattens a public settings dataclass into
JSON so a ledger row can carry — and be identified by — its full
configuration.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import time
from typing import Dict, Sequence

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
SPEC_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")

#: A calibration drift above this share marks a ledger row ``noisy``.
CALIB_DRIFT_LIMIT = 0.10


def load_spec() -> dict:
    """The benchmark's contract: workloads, metric names, units and bounds."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(spec: dict, section: str) -> Dict[str, str]:
    """``{name: unit}`` of one metric section (``end_to_end``/``per_layer``)."""
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def resolve_settings(settings: object) -> dict:
    """A settings dataclass as plain JSON values (enums by name)."""

    def plain(value: object) -> object:
        if isinstance(value, enum.Enum):
            return value.name
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [plain(item) for item in value]
        return value

    return plain(dataclasses.asdict(settings))


def config_id(config: dict) -> str:
    """First 12 hex digits of the SHA-256 of the config's sorted JSON.

    Equal configs give equal ids, so a number stays attributable to the
    exact engine settings, sizes and seed it was measured under.
    """
    payload = json.dumps(config, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Median that tolerates an empty sample (0.0)."""
    return statistics.median(values) if values else 0.0


def calibrate(loops: int = 15) -> float:
    """Seconds a fixed pure-Python loop takes: the box's speed right now.

    Timed around a run's builds and passes; nothing is normalised by it, a
    drift only marks the row noisy.  The loop stays within the cached small
    integers, because a loop that allocates runs up to 15% faster or slower
    with the heap's layout (it marked every ``wide_scan`` row noisy).  Best
    of fifteen ``loops`` (0.2 s), so a burst of preemption does not count:
    here they last up to 0.2 s and slow the loop by a third.
    """
    best = float("inf")
    for _ in range(loops):
        start = time.perf_counter()
        x = 1
        for _ in itertools.repeat(None, 400_000):
            x = (x * 5 + 1) & 255
        best = min(best, time.perf_counter() - start)
    return best


def peak_rss_mib() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
