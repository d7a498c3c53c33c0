"""Most-common-value (MCV) lists.

PostgreSQL keeps the ``k`` most frequent values of a column together with
their frequencies; equality selectivity for one of these values is its exact
frequency, and equality with any other value divides the remaining mass
uniformly over the remaining distinct values.  This module reproduces that
behaviour.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class MostCommonValues:
    """The most common values of a column and their relative frequencies.

    Attributes:
        values: the most common values, most frequent first.
        frequencies: relative frequencies (fraction of non-NULL rows), aligned
            with ``values``.
    """

    values: Tuple[object, ...]
    frequencies: Tuple[float, ...]

    @classmethod
    def build(
        cls, values: Sequence, max_entries: int = 100
    ) -> Optional["MostCommonValues"]:
        """Build the MCV list from values (NULLs are ignored).

        Values are only retained while they are genuinely "common": like
        PostgreSQL, a value that appears once in a large column is not an MCV.
        Returns ``None`` for empty input.
        """
        return cls.from_counts(
            Counter(v for v in values if v is not None), max_entries
        )

    @classmethod
    def from_counts(
        cls, counts: Counter, max_entries: int = 100
    ) -> Optional["MostCommonValues"]:
        """:meth:`build` from the non-NULL values' occurrence counts.

        Equally frequent values keep the counter's insertion order, so count
        the values in storage order.
        """
        if not counts:
            return None
        total = sum(counts.values())
        common = counts.most_common(max_entries)
        if len(counts) > max_entries:
            # Only keep values noticeably more frequent than the average.
            average = total / len(counts)
            common = [(v, c) for v, c in common if c > 1.25 * average] or common
        mcv_values = tuple(v for v, _ in common)
        mcv_freqs = tuple(c / total for _, c in common)
        return cls(values=mcv_values, frequencies=mcv_freqs)

    def __len__(self) -> int:
        return len(self.values)

    def frequency_of(self, value) -> Optional[float]:
        """Frequency of ``value`` if it is in the MCV list, else ``None``."""
        lookup: Dict[object, float] = dict(zip(self.values, self.frequencies))
        return lookup.get(value)

    @property
    def total_frequency(self) -> float:
        """Total mass covered by the MCV list."""
        return float(sum(self.frequencies))
