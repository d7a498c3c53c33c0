"""Equi-depth histograms.

The histogram mirrors PostgreSQL's ``histogram_bounds``: after removing the
most common values, the remaining values are divided into buckets with
(approximately) the same number of rows each.  Selectivity of range
predicates is estimated by linear interpolation inside the boundary buckets,
exactly the uniformity-within-bucket assumption the paper discusses.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Optional, Sequence


@dataclass(frozen=True)
class EquiDepthHistogram:
    """An equi-depth histogram over orderable values.

    Attributes:
        bounds: ``num_buckets + 1`` boundary values; bucket ``i`` covers
            ``[bounds[i], bounds[i+1])`` except the last which is inclusive.
    """

    bounds: tuple

    @classmethod
    def build(cls, values: Sequence, num_buckets: int = 100) -> Optional["EquiDepthHistogram"]:
        """Build a histogram from values (NULLs are ignored).

        Returns ``None`` when there are not enough distinct values to form a
        useful histogram (PostgreSQL similarly skips the histogram for
        low-cardinality columns, relying on the MCV list instead).
        """
        counts = Counter(v for v in values if v is not None)
        return cls.from_counts(sorted(counts), counts, num_buckets)

    @classmethod
    def from_counts(
        cls, ordered: Sequence, counts: Mapping, num_buckets: int = 100
    ) -> Optional["EquiDepthHistogram"]:
        """:meth:`build` from the sorted distinct non-NULL values and their counts.

        The boundaries are the values at evenly spaced ranks of the sorted
        column; ranks are resolved against the running counts, so the column
        itself is never sorted (or even materialized).
        """
        if len(ordered) < 2:
            return None
        ends = list(accumulate(counts[value] for value in ordered))
        last_rank = ends[-1] - 1
        buckets = min(num_buckets, len(ordered) - 1, last_rank)
        if buckets < 1:
            return None
        bounds = tuple(
            ordered[bisect.bisect_right(ends, round(i * last_rank / buckets))]
            for i in range(buckets + 1)
        )
        # Duplicate boundaries are kept on purpose: a value repeated in many
        # boundaries represents many full buckets of that value, which is what
        # keeps range estimates sane on heavily skewed columns.
        if len(set(bounds)) < 2:
            return None
        return cls(bounds=bounds)

    @property
    def num_buckets(self) -> int:
        """Number of buckets."""
        return len(self.bounds) - 1

    @property
    def low(self):
        """Smallest histogram boundary."""
        return self.bounds[0]

    @property
    def high(self):
        """Largest histogram boundary."""
        return self.bounds[-1]

    def selectivity_less_than(self, value, inclusive: bool = False) -> float:
        """Estimated fraction of histogram values ``< value`` (or ``<=``)."""
        if value is None:
            return 0.0
        if value < self.low:
            return 0.0
        if value > self.high:
            return 1.0
        if value == self.low:
            return 0.0 if not inclusive else self._point_fraction()
        if value == self.high and inclusive:
            return 1.0
        bucket = bisect.bisect_right(self.bounds, value) - 1
        bucket = min(bucket, self.num_buckets - 1)
        lo = self.bounds[bucket]
        hi = self.bounds[bucket + 1]
        if hi == lo:
            within = 1.0
        else:
            within = self._interp(value, lo, hi)
        return (bucket + within) / self.num_buckets

    def selectivity_range(
        self,
        low=None,
        high=None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> float:
        """Estimated fraction of values within the (possibly open) range."""
        upper = 1.0 if high is None else self.selectivity_less_than(high, include_high)
        lower = 0.0 if low is None else self.selectivity_less_than(low, not include_low)
        return max(0.0, min(1.0, upper - lower))

    def _point_fraction(self) -> float:
        """Fraction attributed to a single point (one part of one bucket)."""
        return 1.0 / (self.num_buckets * 10.0)

    @staticmethod
    def _interp(value, lo, hi) -> float:
        """Linear interpolation of ``value`` within ``[lo, hi]``; 0.5 for text."""
        try:
            return (value - lo) / (hi - lo)
        except TypeError:
            # Non-numeric (text) boundaries: assume the midpoint, the same
            # coarse assumption PostgreSQL's convert_string_datum path makes.
            return 0.5
