"""Random value distributions used by the workload generators.

The synthetic IMDB dataset needs two properties the paper's analysis relies
on: *skew* (a few movies / actors / keywords account for a large share of the
fact-table rows) and *correlation* (popular entities are popular in every
fact table, and attribute values are correlated across join edges).  The
helpers in this module provide seeded, deterministic sampling primitives with
those properties.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Sequence


class ZipfSampler:
    """Samples integers ``0..n-1`` with a Zipf-like (power-law) distribution.

    Element ``i`` has weight ``1 / (i + 1) ** exponent``; element 0 is the
    most popular.  Sampling uses a precomputed cumulative table, so draws are
    ``O(log n)``.
    """

    def __init__(self, n: int, exponent: float = 1.0) -> None:
        if n < 1:
            raise ValueError("ZipfSampler requires at least one element")
        self.n = n
        self.exponent = exponent
        weights = [1.0 / ((i + 1) ** exponent) for i in range(n)]
        total = sum(weights)
        cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        cumulative[-1] = 1.0
        self._cumulative = cumulative

    def sample(self, rng: random.Random) -> int:
        """Draw one index."""
        return bisect.bisect_left(self._cumulative, rng.random())

    def sample_many(self, rng: random.Random, count: int) -> List[int]:
        """Draw ``count`` independent indices."""
        return [self.sample(rng) for _ in range(count)]

    def probability(self, index: int) -> float:
        """Probability mass of ``index``."""
        if index < 0 or index >= self.n:
            return 0.0
        previous = self._cumulative[index - 1] if index > 0 else 0.0
        return self._cumulative[index] - previous


class WeightedSampler:
    """Samples from an explicit weight vector (used for categorical columns)."""

    def __init__(self, values: Sequence, weights: Sequence[float]) -> None:
        if len(values) != len(weights) or not values:
            raise ValueError("values and weights must be non-empty and aligned")
        self.values = list(values)
        total = float(sum(weights))
        cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        cumulative[-1] = 1.0
        self._cumulative = cumulative

    def sample(self, rng: random.Random):
        """Draw one value."""
        return self.values[bisect.bisect_left(self._cumulative, rng.random())]


def skewed_year(rng: random.Random, popularity: float, low: int = 1930, high: int = 2018) -> int:
    """Production year correlated with popularity: popular titles are recent.

    ``popularity`` in ``[0, 1]``; values near 1 concentrate in the last ~15
    years, values near 0 are close to uniform over the whole range.
    """
    span = high - low
    recent_low = high - max(3, int(span * 0.2))
    if rng.random() < 0.25 + 0.65 * popularity:
        return rng.randint(recent_low, high)
    return rng.randint(low, high)
