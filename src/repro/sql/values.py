"""Value-level SQL semantics shared by the binder and both engines.

Every function in this module operates on plain Python values under SQL's
three-valued logic: ``None`` is SQL ``NULL``, booleans are the third truth
value's carriers (``True``/``False``/``None``).  The binder uses these
helpers to constant-fold literal-only expressions, and the expression
compiler in :mod:`repro.executor.expressions` uses the *same* helpers in
both of its targets (row closures and batch evaluators), which is what makes
bind-time folding, the reference oracle and the vectorized engine agree
bit-for-bit on every float and every NULL.

The semantics, pinned by the differential fuzzer:

* arithmetic propagates NULL (any NULL operand makes the result NULL);
* division and modulo by zero yield NULL (SQLite's choice; friendlier to a
  fuzzer than an error, and it keeps filters total functions);
* integer division truncates toward zero and integer modulo takes the sign
  of the dividend (PostgreSQL/C semantics, *not* Python's floor rules);
* comparisons with a NULL operand are NULL (unknown), never False;
* ``AND``/``OR`` follow Kleene logic, ``NOT NULL`` is NULL;
* ``x [NOT] IN (list)`` is NULL when no element matches but some element
  (or ``x`` itself) is NULL;
* ``LIKE`` on a NULL operand or NULL pattern is NULL.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import List, Optional

from repro.sql.ast import ArithOp, ComparisonOp


def arith(op: ArithOp, left: object, right: object) -> object:
    """Apply one arithmetic operator with SQL NULL/zero-division semantics."""
    if left is None or right is None:
        return None
    if op is ArithOp.ADD:
        return left + right
    if op is ArithOp.SUB:
        return left - right
    if op is ArithOp.MUL:
        return left * right
    if right == 0:
        return None
    if op is ArithOp.DIV:
        if isinstance(left, int) and isinstance(right, int):
            # Truncate toward zero (PostgreSQL), not Python's floor.
            quotient = abs(left) // abs(right)
            return quotient if (left < 0) == (right < 0) else -quotient
        return left / right
    # MOD: result takes the sign of the dividend (C semantics).
    remainder = abs(left) % abs(right)
    return remainder if left >= 0 else -remainder


def negate(value: object) -> object:
    """Unary minus with NULL propagation."""
    if value is None:
        return None
    return -value


def compare(op: "ComparisonOp", left: object, right: object) -> Optional[bool]:
    """Three-valued comparison: NULL operands make the answer unknown."""
    if left is None or right is None:
        return None
    return op.apply(left, right)


def logical_and(values: List[Optional[bool]]) -> Optional[bool]:
    """Kleene AND over a list of three-valued operands."""
    saw_null = False
    for value in values:
        if value is False:
            return False
        if value is None:
            saw_null = True
    return None if saw_null else True


def logical_or(values: List[Optional[bool]]) -> Optional[bool]:
    """Kleene OR over a list of three-valued operands."""
    saw_null = False
    for value in values:
        if value is True:
            return True
        if value is None:
            saw_null = True
    return None if saw_null else False


def logical_not(value: Optional[bool]) -> Optional[bool]:
    """Kleene NOT."""
    if value is None:
        return None
    return not value


def in_list(value: object, items: List[object]) -> Optional[bool]:
    """``value IN (items)`` under three-valued logic."""
    if value is None:
        return None
    saw_null = False
    for item in items:
        if item is None:
            saw_null = True
        elif item == value:
            return True
    return None if saw_null else False


def between(value: object, low: object, high: object) -> Optional[bool]:
    """``value BETWEEN low AND high``: ``low <= value AND value <= high``, three-valued.

    A NULL bound leaves its half unknown, but the other half can still make
    the whole FALSE (``10 BETWEEN NULL AND 5``).
    """
    if value is None:
        return None
    if low is not None and high is not None:
        return low <= value <= high
    if (low is not None and value < low) or (high is not None and value > high):
        return False
    return None


@lru_cache(maxsize=4096)
def like_pattern_to_regex(pattern: str) -> "re.Pattern":
    """Translate a SQL LIKE pattern into an anchored regular expression.

    Anchored with ``\\Z``, not ``$``: ``$`` also matches before a trailing
    newline, which would make ``'abc\\n' LIKE 'abc'`` true.
    """
    parts: List[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + r"\Z", re.DOTALL)


def like(value: object, pattern: object) -> Optional[bool]:
    """``value LIKE pattern``, three-valued."""
    if value is None or pattern is None:
        return None
    return like_pattern_to_regex(str(pattern)).match(str(value)) is not None


def is_truthy(value: object) -> bool:
    """Whether a three-valued predicate result keeps a row (only True does)."""
    return value is True
