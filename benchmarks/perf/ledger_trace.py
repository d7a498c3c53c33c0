"""The traced run: spans recorded from outside the engine, and their sums.

:class:`SpanRecorder` is a :class:`repro.QueryInterceptor` passed through
the public ``connect(interceptors=[...])`` hook.  ``Connection`` places user
interceptors *inside* the plan cache and *outside* the re-optimization
loop, so its plan span is true first-round planning (it fires only on a
cache miss) and its execute span is the whole loop: operators, re-plans,
temp-table materialisation and the feedback harvest.

Spans stay in memory and are written as JSONL when the run ends.  A span is
``{"id", "parent", "statement", "name", "start", "end", "attrs"}``: spans
of one statement share ``statement`` (the id of its root span, whose
``parent`` is null); self time is a span minus its children.
"""

from __future__ import annotations

import itertools
import json
import time
from typing import Dict, Iterable, List, Optional

from repro import QueryInterceptor, q_error

from ledger import percentile

STAGES = ("parse", "bind", "plan", "execute")


class SpanRecorder(QueryInterceptor):
    """Records one span per lifecycle stage under the open statement span."""

    name = "perf-ledger-trace"

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._statement: Optional[dict] = None

    def record(self, name, start, end=None, parent=None, attrs=None) -> dict:
        """Append a span; ``parent`` is its statement's root span, if any."""
        span_id = next(self._ids)
        span = {
            "id": span_id,
            "parent": parent["id"] if parent else None,
            "statement": parent["id"] if parent else span_id,
            "name": name,
            "start": start,
            "end": end,
            "attrs": attrs or {},
        }
        self.spans.append(span)
        return span

    # -- statement spans (opened by the benchmark loop) ---------------------

    def begin_statement(self, query: str) -> None:
        """Open the root span of one statement; stage spans nest under it."""
        self._statement = self.record(
            "statement", time.perf_counter(), attrs={"query": query}
        )

    def end_statement(self) -> None:
        """Close the open statement span."""
        self._statement["end"] = time.perf_counter()
        self._statement = None

    # -- stage spans (the interceptor hooks) --------------------------------

    def _stage(self, stage, ctx, proceed, attrs=None):
        span = self.record(stage, time.perf_counter(), parent=self._statement)
        try:
            ctx = proceed(ctx)
            if attrs is not None:
                span["attrs"] = attrs(ctx)
            return ctx
        finally:
            span["end"] = time.perf_counter()

    def around_parse(self, ctx, proceed):
        return self._stage("parse", ctx, proceed)

    def around_bind(self, ctx, proceed):
        return self._stage("bind", ctx, proceed)

    def around_plan(self, ctx, proceed):
        # ctx.planned is replaced by the final round after execute, so the
        # first round's exact planning counters are read here.
        return self._stage("plan", ctx, proceed, _planning_attrs)

    def around_execute(self, ctx, proceed):
        return self._stage("execute", ctx, proceed)


def _planning_attrs(ctx) -> dict:
    stats = ctx.planned.stats
    return {
        "tables": ctx.bound.num_tables(),
        "estimate_calls": stats.estimate_calls,
        "candidates_considered": stats.candidates_considered,
    }


def write_spans(spans: Iterable[dict], path: str) -> None:
    """Write spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def span_metrics(spans: List[dict], passes: int) -> Dict[str, float]:
    """Per-pass sums of the recorded spans, by layer."""
    by_name: Dict[str, List[dict]] = {name: [] for name in STAGES + ("statement",)}
    for span in spans:
        by_name[span["name"]].append(span)
    total = {name: sum(map(duration, group)) for name, group in by_name.items()}
    plans = by_name["plan"]
    candidates = sum(s["attrs"]["candidates_considered"] for s in plans)
    stage_total = sum(total[stage] for stage in STAGES)
    return {
        "sql.parse_s": total["parse"] / passes,
        "sql.bind_s": total["bind"] / passes,
        "sql.statements": len(by_name["statement"]) / passes,
        "engine.pipeline_self_s": (total["statement"] - stage_total) / passes,
        "optimizer.plan_s": total["plan"] / passes,
        "optimizer.plan_calls": len(plans) / passes,
        "optimizer.estimate_calls": sum(s["attrs"]["estimate_calls"] for s in plans)
        / passes,
        "optimizer.candidates_considered": candidates / passes,
        "optimizer.plan_us_per_candidate": (
            total["plan"] / candidates * 1e6 if candidates else 0.0
        ),
        "optimizer.plan_s_ge10_tables": sum(
            duration(s) for s in plans if s["attrs"]["tables"] >= 10
        )
        / passes,
        "execute_span_s": total["execute"] / passes,
    }


def context_metrics(contexts: List[object], passes: int) -> Dict[str, float]:
    """Per-pass sums of the exact counters on finished statement contexts.

    ``contexts`` are the public ``cursor.context`` objects of the traced
    passes: the re-optimization report, the final execution's
    ``NodeMetrics`` and the final plan's per-node charged work.
    """
    replans = reoptimized = rows_processed = final_rows = 0
    planning_work = operator_s = 0.0
    work = {"scan": 0.0, "join": 0.0, "agg_sort": 0.0}
    scans = {
        "partitions_scanned": 0,
        "partitions_pruned": 0,
        "segments_skipped": 0,
        "columns_decoded": 0,
    }
    join_q_errors: List[float] = []
    for ctx in contexts:
        operator_s += ctx.wall_seconds
        rows_processed += ctx.rows_processed
        final_rows += ctx.execution.rows_processed
        report = ctx.report
        if report is not None:
            replans += len(report.steps)
            reoptimized += 1 if report.reoptimized else 0
            planning_work += report.total_planning_work
        for node in ctx.planned.plan.walk():
            kind = type(node).__name__
            if kind == "ScanNode":
                work["scan"] += node.actual_work or 0.0
            elif kind == "JoinNode":
                work["join"] += node.actual_work or 0.0
            else:
                work["agg_sort"] += node.actual_work or 0.0
        for metric in ctx.execution.node_metrics.values():
            if "Join" in metric.label or "Nested Loop" in metric.label:
                join_q_errors.append(q_error(metric.estimated_rows, metric.actual_rows))
            for key in scans:
                scans[key] += getattr(metric, key) or 0
    out = {
        "core.replans": replans / passes,
        "core.reoptimized_statements": reoptimized / passes,
        "report_planning_work": planning_work / passes,
        "core.rework_share": (
            1.0 - final_rows / rows_processed if rows_processed else 0.0
        ),
        "executor.operator_s": operator_s / passes,
        "executor.rows_processed": rows_processed / passes,
        "executor.rows_per_s": rows_processed / operator_s if operator_s else 0.0,
        "executor.work_scan": work["scan"] / passes,
        "executor.work_join": work["join"] / passes,
        "executor.work_agg_sort": work["agg_sort"] / passes,
        "optimizer.q_error_p90": (
            percentile(join_q_errors, 90) if join_q_errors else 0.0
        ),
    }
    for key, value in scans.items():
        out[f"storage.{key}"] = value / passes
    return out


def library_layer_metrics(
    spans: List[dict], contexts: List[object], passes: int
) -> Dict[str, float]:
    """Every span- and counter-derived layer metric of a library workload."""
    out = span_metrics(spans, passes)
    out.update(context_metrics(contexts, passes))
    # Execute span minus operator time: re-planning, temp-table
    # materialisation + ANALYZE, and the feedback harvest.
    out["core.reopt_overhead_s"] = out.pop("execute_span_s") - out["executor.operator_s"]
    # A report charges round zero exactly when the plan span fired (cache
    # miss), so what is left after removing the first rounds is re-planning.
    first_rounds = (
        out["optimizer.estimate_calls"] + out["optimizer.candidates_considered"]
    )
    out["core.replan_planning_work"] = out.pop("report_planning_work") - first_rounds
    return out
