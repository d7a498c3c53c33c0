"""Partition pruning: drop shards whose zone maps contradict pushed-down filters.

:func:`prune_partitions` takes the pushed-down CNF conjuncts of a base-table
scan and decides, per partition, whether the conjunction can possibly be
TRUE for any stored row.  Two independent mechanisms combine:

* **Zone-map refutation** — every conjunct is normalized to negation normal
  form (:func:`~repro.optimizer.rewrite.push_not_down`, exact under
  three-valued logic) and tested against the partition's per-column
  min/max/null-count synopsis.  A partition survives only if *every*
  conjunct may still be TRUE there.
* **Partition-key routing** — equality and ``IN`` conjuncts on the
  partition key compute the exact target shards via
  :meth:`~repro.storage.table.Table.route`.  This is what
  prunes *hash* partitions, whose zone maps all cover the full key range.

Soundness rule: a partition is pruned only when the conjunction is provably
never TRUE for any of its rows (UNKNOWN and FALSE both drop a row, so both
justify pruning).  Anything the analysis cannot prove — unknown expression
shapes, mixed-type comparisons raising ``TypeError`` — conservatively keeps
the partition.  The differential fuzzer pins this: a wrongly pruned shard
shows up as missing rows against the reference oracle.

The same synopsis proves as well as refutes: :func:`must_match` is ``True``
only when a conjunct is TRUE on *every* row of a zone, and the scan stops
evaluating such a conjunct on that shard.  It adds no per-shape rule: a
conjunct whose columns hold no NULL and whose literals are neither NULL nor
NaN is never UNKNOWN wherever :func:`may_match` can refute anything, so a
refuted ``NOT conjunct`` proves it.  A NaN makes a zone undecidable — it
orders with nothing, so the extremes bound nothing — and both functions then
reason about that column's NULL count only (``IS [NOT] NULL``, all-NULL
refutations).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.optimizer.rewrite import push_not_down
from repro.sql import values
from repro.sql.ast import (
    Arithmetic,
    Between,
    BoolConnective,
    BoolExpr,
    Column,
    Comparison,
    ComparisonOp,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
)
from repro.storage.partition import ZoneMap
from repro.storage.table import Table

__all__ = ["may_match", "must_match", "prune_partitions"]


def prune_partitions(
    table: Table, filters: Sequence[Expr]
) -> Tuple[Tuple[int, ...], int]:
    """Partitions of ``table`` that ``filters`` provably cannot match.

    Returns ``(pruned, total)`` where ``pruned`` is the ascending tuple of
    partition indices a scan may skip and ``total`` the partition count.
    With no filters nothing is pruned.
    """
    total = table.num_partitions
    normalized = [push_not_down(conjunct) for conjunct in filters]
    allowed: Optional[Set[int]] = None
    for conjunct in normalized:
        keys = _routing_keys(conjunct, table)
        if keys is None:
            continue
        routed = {table.route(key) for key in keys}
        allowed = routed if allowed is None else (allowed & routed)
    pruned: List[int] = []
    for index in range(total):
        if allowed is not None and index not in allowed:
            pruned.append(index)
            continue
        zone_map = table.zone_map(index)
        if normalized and zone_map.row_count == 0:
            # A filtered scan of an empty shard yields nothing; skip it.
            pruned.append(index)
            continue
        if not all(_may_match(conjunct, zone_map) for conjunct in normalized):
            pruned.append(index)
    return tuple(pruned), total


# ---------------------------------------------------------------------------
# Partition-key routing
# ---------------------------------------------------------------------------


def _routing_keys(
    conjunct: Expr, table: Table
) -> Optional[List[object]]:
    """Exact key values a conjunct restricts the partition key to.

    ``None`` means the conjunct does not pin the key (no routing); an empty
    list means no key can satisfy it (all partitions pruned).  Only
    non-negated equality and ``IN`` over the bare key column route; NULL
    comparands are dropped (``key = NULL`` is never TRUE).
    """
    key_column = table.spec.column
    col_type = table.schema.column(key_column).col_type
    candidates: Optional[List[object]] = None
    if isinstance(conjunct, Comparison) and conjunct.op is ComparisonOp.EQ:
        if _is_key_column(conjunct.left, key_column) and isinstance(
            conjunct.right, Literal
        ):
            candidates = [conjunct.right.value]
        elif _is_key_column(conjunct.right, key_column) and isinstance(
            conjunct.left, Literal
        ):
            candidates = [conjunct.left.value]
    elif (
        isinstance(conjunct, InList)
        and not conjunct.negated
        and _is_key_column(conjunct.operand, key_column)
        and all(isinstance(item, Literal) for item in conjunct.items)
    ):
        candidates = [item.value for item in conjunct.items]
    if candidates is None:
        return None
    keys: List[object] = []
    for value in candidates:
        if value is None:
            continue
        try:
            keys.append(col_type.coerce(value))
        except Exception:
            # Un-coercible comparand: fall back to zone maps for this one.
            return None
    return keys


def _is_key_column(expr: Expr, key_column: str) -> bool:
    return isinstance(expr, Column) and expr.column == key_column


# ---------------------------------------------------------------------------
# Zone-map refutation
# ---------------------------------------------------------------------------


def may_match(expr: Expr, zone_map: ZoneMap) -> bool:
    """Whether ``expr`` (in NNF) may evaluate TRUE for some row of a zone.

    ``False`` is a proof of "never TRUE"; ``True`` merely means the synopsis
    cannot refute the conjunct.  ``expr`` must already be in negation normal
    form (:func:`~repro.optimizer.rewrite.push_not_down`).  Besides whole
    partitions, the scan layer reuses this against synthetic per-block zone
    maps for segment skipping — the caller must ensure the zone map carries a
    real :class:`~repro.storage.partition.ColumnZone` for **every** column
    the conjunct references, because an auto-created empty zone reads as
    "all NULL" and would wrongly refute.
    """
    return _may_match(expr, zone_map)


def must_match(expr: Expr, zone_map: ZoneMap) -> bool:
    """Whether ``expr`` evaluates TRUE on every row of a zone.

    ``True`` is a proof; ``False`` merely means the synopsis cannot give
    one.  ``expr`` may be in any form.  Every column it references needs a
    tracked zone with no NULL and no NaN, and no literal in it may be NULL or
    NaN; then each refutation :func:`may_match` makes rests on a leaf that is
    TRUE or FALSE on every row, never UNKNOWN, so ``NOT expr`` refuted means
    ``expr`` is TRUE throughout.
    """
    for node in expr.walk():
        if isinstance(node, Literal):
            if node.value is None or node.value != node.value:
                return False
        elif isinstance(node, Column):
            zone = zone_map.columns.get(node.column)
            if zone is None or zone.null_count or zone.has_nan:
                return False
    return not _may_match(push_not_down(Not(expr)), zone_map)


def _may_match(expr: Expr, zone_map: ZoneMap) -> bool:
    if isinstance(expr, BoolExpr):
        parts = [_may_match(operand, zone_map) for operand in expr.operands]
        if expr.op is BoolConnective.AND:
            return all(parts)
        return any(parts)
    if isinstance(expr, Literal):
        # A constant FALSE/NULL conjunct filters out every row.
        return values.is_truthy(expr.value)
    if isinstance(expr, IsNull):
        return _may_match_is_null(expr, zone_map)
    if isinstance(expr, Comparison):
        return _may_match_comparison(expr, zone_map)
    if isinstance(expr, InList):
        return _may_match_in_list(expr, zone_map)
    if isinstance(expr, Between):
        return _may_match_between(expr, zone_map)
    if isinstance(expr, Like):
        return _may_match_like(expr, zone_map)
    return True


def _strict_columns(expr: Expr) -> Optional[Set[str]]:
    """Columns of a NULL-strict scalar expression, or ``None`` if unprovable.

    An expression built purely from columns, literals, arithmetic and unary
    minus evaluates to NULL whenever any referenced column is NULL.  Hence a
    predicate over such operands is UNKNOWN — never TRUE — on every row
    where one of these columns is NULL.
    """
    if isinstance(expr, Column):
        return {expr.column}
    if isinstance(expr, Literal):
        return set()
    if isinstance(expr, Negate):
        return _strict_columns(expr.operand)
    if isinstance(expr, Arithmetic):
        left = _strict_columns(expr.left)
        right = _strict_columns(expr.right)
        if left is None or right is None:
            return None
        return left | right
    return None


def _all_null_somewhere(
    operands: Sequence[Expr], zone_map: ZoneMap
) -> Optional[bool]:
    """Whether some strict operand column is entirely NULL in the partition.

    ``True`` proves the enclosing strict predicate never TRUE; ``False``
    means no refutation; ``None`` means the operands were not provably
    strict (no conclusion).
    """
    columns: Set[str] = set()
    for operand in operands:
        strict = _strict_columns(operand)
        if strict is None:
            return None
        columns |= strict
    return any(zone_map.non_null_count(column) == 0 for column in columns)


def _literal_value(expr: Expr) -> Tuple[bool, object]:
    """``(True, value)`` when ``expr`` is a literal, else ``(False, None)``."""
    if isinstance(expr, Literal):
        return True, expr.value
    return False, None


def _may_match_is_null(expr: IsNull, zone_map: ZoneMap) -> bool:
    if isinstance(expr.operand, Column):
        zone = zone_map.zone(expr.operand.column)
        if expr.negated:  # IS NOT NULL
            return zone_map.row_count - zone.null_count > 0
        return zone.null_count > 0
    if expr.negated:
        # IS NOT NULL over a strict expression needs one row with every
        # referenced column non-NULL; an all-NULL column refutes that.
        refuted = _all_null_somewhere([expr.operand], zone_map)
        if refuted:
            return False
    return True


def _may_match_comparison(expr: Comparison, zone_map: ZoneMap) -> bool:
    refuted = _all_null_somewhere([expr.left, expr.right], zone_map)
    if refuted:
        return False
    op = expr.op
    if isinstance(expr.left, Column):
        column, is_lit, comparand = expr.left.column, *_literal_value(expr.right)
    elif isinstance(expr.right, Column):
        op = op.flipped()
        column, is_lit, comparand = expr.right.column, *_literal_value(expr.left)
    else:
        return True
    if not is_lit:
        return True
    if comparand is None:
        return False  # comparison with NULL is never TRUE
    zone = zone_map.zone(column)
    if zone_map.non_null_count(column) == 0:
        return False
    lo, hi = zone.minimum, zone.maximum
    if lo is None or hi is None:
        return False
    if zone.has_nan:
        return True
    try:
        if op is ComparisonOp.EQ:
            return lo <= comparand <= hi
        if op is ComparisonOp.NE:
            return not (lo == comparand and hi == comparand)
        if op is ComparisonOp.LT:
            return lo < comparand
        if op is ComparisonOp.LE:
            return lo <= comparand
        if op is ComparisonOp.GT:
            return hi > comparand
        return hi >= comparand  # GE
    except TypeError:
        return True


def _may_match_in_list(expr: InList, zone_map: ZoneMap) -> bool:
    refuted = _all_null_somewhere([expr.operand], zone_map)
    if refuted:
        return False
    if expr.negated and any(
        isinstance(item, Literal) and item.value is None for item in expr.items
    ):
        # x NOT IN (..., NULL) is FALSE or UNKNOWN for every x: never TRUE.
        return False
    if not isinstance(expr.operand, Column):
        return True
    column = expr.operand.column
    if zone_map.non_null_count(column) == 0:
        return False
    if not all(isinstance(item, Literal) for item in expr.items):
        return True
    items = [item.value for item in expr.items]
    zone = zone_map.zone(column)
    lo, hi = zone.minimum, zone.maximum
    if lo is None or hi is None:
        return False
    if zone.has_nan:
        return True
    try:
        if not expr.negated:
            return any(v is not None and lo <= v <= hi for v in items)
        if lo == hi and any(v == lo for v in items):
            # Single-value shard whose one value is excluded by the list.
            return False
        return True
    except TypeError:
        return True


def _may_match_between(expr: Between, zone_map: ZoneMap) -> bool:
    refuted = _all_null_somewhere([expr.operand], zone_map)
    if refuted:
        return False
    if not isinstance(expr.operand, Column):
        return True
    column = expr.operand.column
    if zone_map.non_null_count(column) == 0:
        return False
    low_lit, low_v = _literal_value(expr.low)
    high_lit, high_v = _literal_value(expr.high)
    if not (low_lit and high_lit):
        return True
    zone = zone_map.zone(column)
    lo, hi = zone.minimum, zone.maximum
    if lo is None or hi is None:
        return False
    if zone.has_nan:
        return True
    try:
        if not expr.negated:
            if low_v is None or high_v is None:
                return False  # a NULL bound makes BETWEEN never TRUE
            if low_v > high_v:
                return False  # empty range
            return not (hi < low_v or lo > high_v)
        # NOT BETWEEN: TRUE when the (non-NULL) value falls outside the
        # range, which includes *every* value when the range is empty or a
        # bound is NULL-vs-violated on the other side.
        if low_v is None and high_v is None:
            return False
        if low_v != low_v or high_v != high_v:
            return True  # a NaN bound: BETWEEN is FALSE, NOT BETWEEN TRUE
        if low_v is None:
            return hi > high_v
        if high_v is None:
            return lo < low_v
        return lo < low_v or hi > high_v or low_v > high_v
    except TypeError:
        return True


def _may_match_like(expr: Like, zone_map: ZoneMap) -> bool:
    refuted = _all_null_somewhere([expr.operand], zone_map)
    if refuted:
        return False
    pattern_lit, pattern = _literal_value(expr.pattern)
    if pattern_lit and pattern is None:
        return False  # LIKE NULL is never TRUE
    if isinstance(expr.operand, Column):
        if zone_map.non_null_count(expr.operand.column) == 0:
            return False
    return True
