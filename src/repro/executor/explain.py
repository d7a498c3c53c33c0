"""EXPLAIN / EXPLAIN ANALYZE rendering of physical plans.

The output format intentionally resembles PostgreSQL's: one line per node,
indented by depth, showing the optimizer's estimates and — after execution —
the actual row counts, batch counts and work.  The re-optimization examples
and the deep-dive example scripts print these trees.

When the execution result came from the adaptive executor
(:class:`~repro.executor.adaptive.AdaptiveExecutionResult`), the rendering
additionally marks scans of in-memory intermediates handed over by a
mid-query re-plan and appends one line per re-plan point: where execution
paused, the estimated-vs-actual mismatch that triggered it, and the
pseudo-table the intermediate was handed over as.
"""

from __future__ import annotations

from typing import List, Optional

from repro.executor.executor import ExecutionResult
from repro.optimizer.plan import JoinNode, OneTimeFilterNode, PlanNode, ScanNode
from repro.sql.ast import render_conjunct


def explain_plan(plan: PlanNode, analyze: Optional[ExecutionResult] = None) -> str:
    """Render ``plan`` as an indented text tree.

    Args:
        plan: the plan root.
        analyze: execution result; when given, actual row counts and work are
            appended to every node line (EXPLAIN ANALYZE style), and adaptive
            executions also render their re-plan points.
    """
    lines: List[str] = []
    _render(plan, 0, lines, analyze)
    replans = getattr(analyze, "replans", None)
    if replans:
        lines.append("Re-plan points:")
        for point in replans:
            lines.append(
                f"  #{point.index + 1} at {point.trigger_label}: "
                f"est_rows={point.estimated_rows:.0f} "
                f"actual_rows={point.actual_rows} "
                f"q_error={point.q_error:.1f} -> remainder re-planned, "
                f"{point.pseudo_rows} rows handed over in memory "
                f"as {point.pseudo_table}"
            )
    return "\n".join(lines)


def _render(
    node: PlanNode, depth: int, lines: List[str], analyze: Optional[ExecutionResult]
) -> None:
    indent = "  " * depth
    arrow = "-> " if depth else ""
    label = node.label()
    pseudo_tables = getattr(analyze, "pseudo_tables", ())
    if isinstance(node, ScanNode) and node.table in pseudo_tables:
        label += " [in-memory intermediate]"
    text = (
        f"{indent}{arrow}{label}  "
        f"(est_rows={node.estimated_rows:.0f} est_cost={node.estimated_cost:.1f}"
    )
    if analyze is not None and node.node_id in analyze.node_metrics:
        metrics = analyze.node_metrics[node.node_id]
        text += (
            f" actual_rows={metrics.actual_rows} "
            f"batches={metrics.batches} work={metrics.work:.1f}"
        )
        if metrics.build_rows is not None:
            text += f" build_rows={metrics.build_rows}"
        if metrics.probe_rows is not None:
            text += f" probe_rows={metrics.probe_rows}"
        if metrics.partitions_scanned is not None:
            text += f" partitions_scanned={metrics.partitions_scanned}"
        if metrics.partitions_pruned is not None:
            text += f" partitions_pruned={metrics.partitions_pruned}"
        if metrics.segments_skipped is not None:
            text += f" segments_skipped={metrics.segments_skipped}"
        if metrics.columns_decoded is not None:
            text += f" columns_decoded={metrics.columns_decoded}"
    elif node.actual_rows is not None:
        text += f" actual_rows={node.actual_rows}"
    text += ")"
    lines.append(text)
    detail_indent = "  " * (depth + 1) + ("    " if depth else "")
    if isinstance(node, ScanNode) and node.partitions_total is not None:
        scanned = node.partitions_total - len(node.pruned_partitions)
        lines.append(
            f"{detail_indent}Partitions: {scanned}/{node.partitions_total} scanned"
        )
    if (
        isinstance(node, ScanNode)
        and node.columns is not None
        and node.columns_total
    ):
        lines.append(
            f"{detail_indent}Columns: {len(node.columns)}/{node.columns_total} read"
        )
    if analyze is not None and node.node_id in analyze.node_metrics:
        skipped = analyze.node_metrics[node.node_id].segments_skipped
        if skipped:
            lines.append(f"{detail_indent}Segments: {skipped} skipped")
    if isinstance(node, ScanNode) and node.filters:
        rendered = " AND ".join(render_conjunct(f) for f in node.filters)
        lines.append(f"{detail_indent}Filter (pushed down): {rendered}")
    if isinstance(node, JoinNode) and node.residual_filters:
        rendered = " AND ".join(
            render_conjunct(f) for f in node.residual_filters
        )
        lines.append(f"{detail_indent}Join Filter (residual): {rendered}")
    if isinstance(node, OneTimeFilterNode) and node.conditions:
        rendered = " AND ".join(render_conjunct(f) for f in node.conditions)
        lines.append(f"{detail_indent}One-Time Filter: {rendered}")
    for child in node.children():
        _render(child, depth + 1, lines, analyze)


def estimation_errors(plan: PlanNode) -> List[str]:
    """Summarize estimated-vs-actual discrepancies of all joins in a plan.

    Only meaningful after the plan has been executed.  Used by examples and
    by tests asserting that the instrumentation is populated.
    """
    from repro.core.triggers import q_error

    lines: List[str] = []
    for join in plan.join_nodes():
        if join.actual_rows is None:
            continue
        error = q_error(join.estimated_rows, join.actual_rows)
        lines.append(
            f"{join.label()}: est={join.estimated_rows:.0f} "
            f"actual={join.actual_rows} q_error={error:.1f}"
        )
    return lines
