"""Estimator-strategy matrix: Q-error distributions and re-plan counts.

Claim under test: the feedback estimator, seeded by cardinalities harvested
from run 1, re-plans less and mis-estimates joins less on run 2 of the same
workload than the statistics-only baseline, while the default ``stats``
strategy stays deterministic across runs (it is the strategy the gated paper
figures run under).
"""

from repro.bench.experiments import estimator_matrix

from conftest import print_experiment


def _cell(result, estimator, run, column):
    index = result.headers.index(column)
    for row in result.rows:
        if row[0] == estimator and row[1] == run:
            return row[index]
    raise AssertionError(f"no row for {estimator} run {run}")


def test_estimator_matrix(benchmark, context, recorder):
    result = benchmark.pedantic(estimator_matrix, args=(context,), rounds=1, iterations=1)
    print_experiment(result)

    estimators = sorted(set(result.column("estimator")))
    assert estimators == ["feedback", "stats", "upper-bound"]

    # Statistics-only strategies are deterministic across runs.
    for estimator in ("stats", "upper-bound"):
        for column in ("replans", "qerr_p50", "qerr_p90", "qerr_max"):
            assert _cell(result, estimator, 1, column) == _cell(
                result, estimator, 2, column
            ), (estimator, column)

    # Feedback warms up: run 2 re-plans less and lands a tighter join-error
    # tail than the statistics-only baseline on the same run.
    feedback_replans = _cell(result, "feedback", 2, "replans")
    stats_replans = _cell(result, "stats", 2, "replans")
    feedback_p90 = _cell(result, "feedback", 2, "qerr_p90")
    stats_p90 = _cell(result, "stats", 2, "qerr_p90")
    assert feedback_replans < stats_replans
    assert feedback_p90 <= stats_p90
    assert _cell(result, "feedback", 2, "replans") <= _cell(
        result, "feedback", 1, "replans"
    )

    # Trajectory metrics (informational: workload-slice characteristics, not
    # gated paper figures).
    recorder.record("estimators.stats.run2_replans", stats_replans, direction="info")
    recorder.record(
        "estimators.feedback.run2_replans", feedback_replans, direction="info"
    )
    recorder.record("estimators.stats.run2_qerr_p90", stats_p90, direction="info")
    recorder.record(
        "estimators.feedback.run2_qerr_p90", feedback_p90, direction="info"
    )
    recorder.record(
        "estimators.upper_bound.run2_replans",
        _cell(result, "upper-bound", 2, "replans"),
        direction="info",
    )
