"""Re-optimization triggers.

The paper triggers re-optimization when the Q-error of a join — the ratio
between the larger and the smaller of (estimated, actual) cardinality —
exceeds a threshold, and it materializes the *lowest* such join in the plan
tree.  This module provides the Q-error metric, the trigger policy object and
the per-join violation test the re-optimization loop
(:mod:`repro.core.interceptor`) hands to the staged executor
(:meth:`~repro.executor.executor.Executor.execute_staged`), which scans the
joins bottom-up and so picks the lowest violating join first.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.optimizer.plan import JoinNode

#: The threshold the paper settles on after the Figure 7 sweep.
DEFAULT_THRESHOLD = 32.0


def q_error(estimated: float, actual: float) -> float:
    """Q-error between an estimate and an actual cardinality.

    Both quantities are clamped below at one row, following Moerkotte et
    al.'s convention, so empty results do not produce infinite errors.
    """
    est = max(1.0, float(estimated))
    act = max(1.0, float(actual))
    return max(est / act, act / est)


@dataclass
class ReoptimizationPolicy:
    """Configuration of the re-optimization scheme.

    Attributes:
        threshold: Q-error above which a join triggers re-optimization.
        trigger_site: ``"lowest"`` materializes the lowest violating join in
            the plan (the paper's choice); ``"highest"`` is the ablation that
            materializes the largest violating sub-join instead.  The
            ablation exists only for the temp-table handover, where such a
            round finishes its plan instead of pausing at the first
            violation; the in-memory (adaptive) handover always triggers at
            the lowest (it warns and ignores ``"highest"``).
        max_iterations: hard cap on materialize/re-plan rounds per query.
        min_query_seconds: queries whose first execution time (the
            temp-table handover finishes the first plan to read it; the
            in-memory one goes by the estimate) is below this value are not
            re-optimized (the paper notes that re-optimizing very short
            queries cannot pay off).
        analyze_temp_tables: ANALYZE each temporary table before re-planning
            (ablation knob; the true row count is always known).  The
            in-memory handover's pseudo-tables are never ANALYZEd.
    """

    threshold: float = DEFAULT_THRESHOLD
    trigger_site: str = "lowest"
    max_iterations: int = 16
    min_query_seconds: float = 0.0
    analyze_temp_tables: bool = True

    def __post_init__(self) -> None:
        if self.threshold < 1.0:
            raise ValueError("the re-optimization threshold must be at least 1")
        if self.trigger_site not in ("lowest", "highest"):
            raise ValueError("trigger_site must be 'lowest' or 'highest'")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")

    def violates(self, join: JoinNode, actual_rows: int) -> bool:
        """Whether ``join``'s estimate is off from ``actual_rows`` by more than the threshold."""
        return q_error(join.estimated_rows, actual_rows) > self.threshold
