"""Plan-node provenance: stitching runtime statistics into re-planning.

Operator-level adaptive execution pauses a query at a pipeline breaker,
collapses the finished sub-join into an in-memory pseudo-table and re-plans
the remainder.  Three pieces of bookkeeping make that stitching sound, all of
them keyed on the *alias subsets* a plan node covers (its provenance):

* :func:`harvest_observations` reads the true cardinalities the executor
  observed (scans after their filters, joins after their predicates) off an
  executed plan — the paper's point that a running query measures exactly the
  quantities the optimizer had to guess.
* :func:`translate_observations` rewrites those observations into the alias
  space of the collapsed query: a subset fully containing the collapsed
  aliases maps onto the pseudo-table's alias, a subset partially overlapping
  it is no longer meaningful and is dropped.
* :func:`runtime_injection` turns the accumulated observations into a
  cardinality injector (chained in front of any caller-supplied injector), so
  every re-planning round plans with true cardinalities wherever execution
  has already measured them.

:func:`plan_output_columns` computes the client-visible output shape of a
plan without executing it; the re-optimization loop uses it to restore the
original column naming and order after the final (re-planned) round, keeping
re-optimization invisible to the client.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.optimizer.injection import (
    CardinalityInjector,
    ChainInjection,
    DictInjection,
)
from repro.optimizer.plan import (
    AggregateNode,
    HashAggregateNode,
    JoinNode,
    PlanNode,
    ScanNode,
)
from repro.sql.binder import output_column_name

QualifiedColumn = Tuple[str, str]

#: Observed true cardinalities, keyed by the alias subset they cover.
Observations = Dict[FrozenSet[str], float]


def harvest_observations(
    plan: PlanNode, executed: Mapping[int, object]
) -> Observations:
    """True cardinalities an execution of (part of) ``plan`` observed.

    ``executed`` is that execution's ``node_metrics``.  Only scans and joins
    carry subset cardinalities the optimizer estimates (a scan's actual rows
    are its post-filter cardinality, a join's actual rows the cardinality of
    its alias subset); aggregation/sort/limit nodes share their child's alias
    set and are skipped.  Nodes the execution never ran are skipped too,
    which is what makes harvesting safe on a stage-wise, partially executed
    plan.

    The rows are read from ``executed``, not off the plan nodes: a plan
    served from the plan cache is shared and mutable, so its nodes may carry
    ``actual_rows`` written by an *earlier* (or concurrent) statement, and
    those must not masquerade as this execution's observations.
    """
    return {
        frozenset(node.aliases): float(executed[node.node_id].actual_rows)
        for node in plan.walk()
        if isinstance(node, (ScanNode, JoinNode)) and node.node_id in executed
    }


def translate_observations(
    observed: Observations, collapsed: FrozenSet[str], pseudo_alias: str
) -> Observations:
    """Map observations into the alias space after collapsing ``collapsed``.

    A subset containing every collapsed alias keeps its meaning with the
    collapsed aliases replaced by ``pseudo_alias`` (the pseudo-table holds
    exactly that sub-join); a subset overlapping ``collapsed`` only partially
    describes a relation that no longer exists in the rewritten query and is
    dropped; disjoint subsets pass through unchanged.
    """
    collapsed = frozenset(collapsed)
    translated: Observations = {}
    for subset, rows in observed.items():
        if collapsed <= subset:
            translated[(subset - collapsed) | {pseudo_alias}] = rows
        elif not (subset & collapsed):
            translated[subset] = rows
    return translated


def runtime_injection(
    observed: Observations, base: Optional[CardinalityInjector] = None
) -> CardinalityInjector:
    """Injector answering from runtime observations, falling back to ``base``.

    Observations are exact, so they take precedence over whatever injector
    the caller planned with (perfect-(n), feedback corrections, ...).
    """
    injector = DictInjection({subset: rows for subset, rows in observed.items()})
    if base is None:
        return injector
    return ChainInjection([injector, base])


def plan_output_columns(plan: PlanNode, catalog: Catalog) -> List[QualifiedColumn]:
    """The qualified output columns ``plan`` produces, computed statically.

    Mirrors the engines' layout rules: a scan emits its table's columns in
    schema order under the scan alias, a join emits left columns then right
    columns, a projection/aggregation emits the select list's output names
    (empty select list — ``SELECT *`` — passes the child layout through), and
    sort/distinct/limit/materialize preserve their child's layout.
    """
    if isinstance(plan, ScanNode):
        schema = catalog.schema(plan.table)
        return [(plan.alias, name) for name in schema.column_names]
    if isinstance(plan, JoinNode):
        return plan_output_columns(plan.left, catalog) + plan_output_columns(
            plan.right, catalog
        )
    if isinstance(plan, (AggregateNode, HashAggregateNode)):
        if not plan.select_items:
            return plan_output_columns(plan.child, catalog)
        return [
            ("", output_column_name(item, i))
            for i, item in enumerate(plan.select_items)
        ]
    children = plan.children()
    if len(children) == 1:
        return plan_output_columns(children[0], catalog)
    raise ValueError(f"cannot derive output columns of {type(plan).__name__}")
