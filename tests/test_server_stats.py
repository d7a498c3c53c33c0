"""ServerStats keeps a fixed window of recent latencies, exact within it."""

from __future__ import annotations

import math
import random
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.server import ServerStats
from repro.server.server import LATENCY_WINDOW
from repro.stats.percentile import nearest_rank

RECORDS = 100_000


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def test_latency_window_is_bounded_and_exact():
    stats = ServerStats()
    result = SimpleNamespace(rowcount=1, reoptimized=False)
    rng = random.Random(7)
    latencies = [rng.random() for _ in range(RECORDS)]

    tracemalloc.start()
    try:
        for latency in latencies[:LATENCY_WINDOW]:
            stats.record(result, latency)
        full, _ = tracemalloc.get_traced_memory()
        for latency in latencies[LATENCY_WINDOW:]:
            stats.record(result, latency)
        aged, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    # The window was full at LATENCY_WINDOW records; 90k more add nothing.
    assert aged - full < 16 * 1024
    window = latencies[-LATENCY_WINDOW:]
    assert stats.latencies() == window
    assert stats.statements == RECORDS
    assert stats.rows_returned == RECORDS
    assert stats.p50_seconds == _nearest_rank(window, 50.0)
    assert stats.p99_seconds == _nearest_rank(window, 99.0)


def test_percentile_of_a_fresh_server_is_zero():
    assert ServerStats().percentile(50.0) == 0.0


@pytest.mark.parametrize(
    "values, q, expected",
    [
        ([1, 2, 3, 4, 5], 50.0, 3),
        ([1, 2, 3, 4], 50.0, 2),
        ([5, 1, 4, 2, 3], 100.0, 5),
        ([5, 1, 4, 2, 3], 0.0, 1),
        ([4, 2, 3, 1], 75.0, 3),
        ([7.0], 99.0, 7.0),
    ],
)
def test_percentile_is_nearest_rank(values, q, expected):
    stats = ServerStats()
    for latency in values:
        stats.record(SimpleNamespace(rowcount=0, reoptimized=False), latency)
    assert stats.percentile(q) == expected
    assert nearest_rank(values, q) == expected


def test_p99_of_a_full_window_is_rank_ceil_99_percent():
    stats = ServerStats()
    result = SimpleNamespace(rowcount=0, reoptimized=False)
    for latency in range(1, LATENCY_WINDOW + 1):
        stats.record(result, float(latency))
    # ceil(0.99 * 8192) = 8111, where rounding half to even gave 8110.
    assert stats.p99_seconds == float(math.ceil(0.99 * LATENCY_WINDOW))
