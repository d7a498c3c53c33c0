"""Nearest-rank percentiles: the one definition the server and benches share."""

from __future__ import annotations

import math
from typing import Iterable


def nearest_rank(values: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in 0..100) of ``values``.

    The value at rank ``max(1, ceil(q / 100 * n))`` of the ``n`` sorted
    values: p50 of ``1..5`` is 3 and of ``1..4`` is 2, p0 is the minimum and
    p100 the maximum.  An empty sample gives 0.0.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
