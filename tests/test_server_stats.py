"""ServerStats keeps a fixed window of recent latencies, exact within it."""

from __future__ import annotations

import random
import tracemalloc
from types import SimpleNamespace

from repro.server import ServerStats
from repro.server.server import LATENCY_WINDOW

RECORDS = 100_000


def _nearest_rank(values, q):
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


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
