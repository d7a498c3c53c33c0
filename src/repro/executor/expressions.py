"""Expression compilation: one tree, two evaluation targets.

The unified :class:`~repro.sql.ast.Expr` tree is compiled into either of

* **Row closures** (the reference engine): :func:`compile_scalar` turns an
  expression into a plain Python callable taking a row tuple and returning
  the SQL value (``None`` is NULL); :func:`compile_predicate` wraps it with
  SQL's truthiness rule (only ``True`` keeps a row).
* **Batch evaluators** (the vectorized engine): :func:`compile_batch_scalar`
  produces a callable taking a :class:`~repro.executor.batch.ColumnBatch`
  plus an optional candidate-index list and returning the per-candidate
  values column-wise; :func:`compile_batch_predicate` returns the surviving
  batch-row indices.  Conjunctions narrow the candidate list predicate by
  predicate, so later predicates only look at rows that survived earlier
  ones, and the common leaf shapes (``column op literal``, ``IN``, ``LIKE``,
  ``BETWEEN``, ``IS NULL`` over a bare column) compile to specialized
  tight-loop filters that never materialize intermediate value lists.

Both targets are compiled from the same AST, share the value semantics of
:mod:`repro.sql.values` (three-valued logic, NULL-propagating arithmetic,
division by zero -> NULL) and must agree exactly — the differential test
suite and the expression fuzzer enforce this bit-for-bit, floats included.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.sql import values as V
from repro.sql.ast import (
    Arithmetic,
    ArithOp,
    Between,
    BoolConnective,
    BoolExpr,
    Case,
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
    Param,
)
from repro.sql.values import like_pattern_to_regex

RowScalar = Callable[[tuple], object]
RowPredicate = Callable[[tuple], bool]

#: A compiled batch predicate: ``(batch, candidate_indices | None) -> indices``.
#: ``None`` candidates mean "all rows of the batch".
BatchPredicate = Callable[[object, Optional[Sequence[int]]], List[int]]

#: A compiled batch scalar: ``(batch, candidate_indices | None) -> values``.
BatchScalar = Callable[[object, Optional[Sequence[int]]], List[object]]

#: A fused filter kernel: ``(columns, start, end[, candidates]) -> kept row
#: indices``.  ``columns`` is the batch's raw backing column lists (no
#: selection vector); the optional fourth argument replaces the
#: ``range(start, end)`` row loop with an explicit candidate-index iterable
#: (segment skipping hands surviving rows through it).
FusedFilter = Callable[[Sequence[List[object]], int, int], List[int]]

__all__ = [
    "BatchPredicate",
    "BatchScalar",
    "ColumnResolver",
    "FusedFilter",
    "RowPredicate",
    "RowScalar",
    "compile_batch_conjunction",
    "compile_batch_predicate",
    "compile_batch_scalar",
    "compile_conjunction",
    "compile_fused_filter",
    "compile_predicate",
    "compile_scalar",
    "compile_value_predicate",
    "index_probe_keys",
    "like_match",
    "like_pattern_to_regex",
]


def like_match(value: object, pattern: str) -> bool:
    """Two-valued LIKE (NULL never matches); kept for direct callers."""
    return V.like(value, pattern) is True


class ColumnResolver:
    """Maps qualified ``(alias, column)`` pairs to row tuple positions."""

    def __init__(self, columns: Sequence[Tuple[str, str]]) -> None:
        self._positions: Dict[Tuple[str, str], int] = {
            (alias, column): index for index, (alias, column) in enumerate(columns)
        }
        self.columns: Tuple[Tuple[str, str], ...] = tuple(columns)

    def position(self, alias: str, column: str) -> int:
        """Index of ``alias.column`` in the row tuple."""
        try:
            return self._positions[(alias, column)]
        except KeyError:
            raise ExecutionError(
                f"column {alias}.{column} is not available in this intermediate result"
            ) from None

    def has(self, alias: str, column: str) -> bool:
        """True if the column is available."""
        return (alias, column) in self._positions


# ---------------------------------------------------------------------------
# Row-closure target (reference engine)
# ---------------------------------------------------------------------------


def compile_scalar(expr: Expr, resolver: ColumnResolver) -> RowScalar:
    """Compile an expression into a ``row -> value`` closure."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, Column):
        index = resolver.position(expr.alias, expr.column)
        return lambda row: row[index]
    if isinstance(expr, Param):
        raise ExecutionError(
            f"unbound parameter ?{expr.index} reached the executor; bind "
            "parameters before planning"
        )
    if isinstance(expr, Negate):
        operand = compile_scalar(expr.operand, resolver)
        return lambda row: V.negate(operand(row))
    if isinstance(expr, Arithmetic):
        op = expr.op
        left = compile_scalar(expr.left, resolver)
        right = compile_scalar(expr.right, resolver)
        return lambda row: V.arith(op, left(row), right(row))
    if isinstance(expr, Comparison):
        op = expr.op
        left = compile_scalar(expr.left, resolver)
        right = compile_scalar(expr.right, resolver)
        return lambda row: V.compare(op, left(row), right(row))
    if isinstance(expr, IsNull):
        operand = compile_scalar(expr.operand, resolver)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expr, InList):
        operand = compile_scalar(expr.operand, resolver)
        items = [compile_scalar(item, resolver) for item in expr.items]
        if expr.negated:
            return lambda row: V.logical_not(
                V.in_list(operand(row), [item(row) for item in items])
            )
        return lambda row: V.in_list(operand(row), [item(row) for item in items])
    if isinstance(expr, Like):
        operand = compile_scalar(expr.operand, resolver)
        pattern = compile_scalar(expr.pattern, resolver)
        if expr.negated:
            return lambda row: V.logical_not(V.like(operand(row), pattern(row)))
        return lambda row: V.like(operand(row), pattern(row))
    if isinstance(expr, Between):
        operand = compile_scalar(expr.operand, resolver)
        low = compile_scalar(expr.low, resolver)
        high = compile_scalar(expr.high, resolver)
        if expr.negated:
            return lambda row: V.logical_not(
                V.between(operand(row), low(row), high(row))
            )
        return lambda row: V.between(operand(row), low(row), high(row))
    if isinstance(expr, Not):
        operand = compile_scalar(expr.operand, resolver)
        return lambda row: V.logical_not(operand(row))
    if isinstance(expr, BoolExpr):
        operands = [compile_scalar(operand, resolver) for operand in expr.operands]
        if expr.op is BoolConnective.AND:
            return lambda row: V.logical_and([operand(row) for operand in operands])
        return lambda row: V.logical_or([operand(row) for operand in operands])
    if isinstance(expr, Case):
        whens = [
            (compile_scalar(condition, resolver), compile_scalar(result, resolver))
            for condition, result in expr.whens
        ]
        default = (
            compile_scalar(expr.default, resolver)
            if expr.default is not None
            else None
        )

        def run_case(row):
            for condition, result in whens:
                if condition(row) is True:
                    return result(row)
            return default(row) if default is not None else None

        return run_case
    raise ExecutionError(f"unsupported expression type {type(expr).__name__}")


def compile_predicate(predicate: Expr, resolver: ColumnResolver) -> RowPredicate:
    """Compile a filter expression into a row-level boolean function.

    SQL filter semantics: the row is kept only when the three-valued result
    is ``True`` (``False`` and NULL both drop it).
    """
    scalar = compile_scalar(predicate, resolver)
    return lambda row: scalar(row) is True


def compile_value_predicate(
    predicate: Expr, alias: str, column: str
) -> Optional[Callable[[object], bool]]:
    """Compile a predicate over exactly one column into ``value -> keep``.

    The compressed-domain filter kernels use this to evaluate a conjunct
    once per dictionary entry or once per RLE run instead of once per row.
    The closure reuses :func:`compile_predicate` over a one-column row, so
    its keep/drop decision is — by construction — identical to the row and
    batch evaluators on the decoded value.  Returns ``None`` when the
    predicate references anything but ``alias.column`` (or contains a shape
    the row compiler rejects, e.g. an unbound parameter); callers then fall
    back to the decode path.
    """
    refs = {(ref.alias, ref.column) for ref in predicate.referenced_columns()}
    if refs != {(alias, column)}:
        return None
    try:
        row_predicate = compile_predicate(
            predicate, ColumnResolver(((alias, column),))
        )
    except ExecutionError:
        return None
    return lambda value: row_predicate((value,))


def compile_conjunction(
    predicates: Sequence[Expr], resolver: ColumnResolver
) -> RowPredicate:
    """Compile a conjunction of predicates into a single row-level function."""
    compiled = [compile_predicate(predicate, resolver) for predicate in predicates]
    if not compiled:
        return lambda row: True
    if len(compiled) == 1:
        return compiled[0]
    return lambda row: all(check(row) for check in compiled)


# ---------------------------------------------------------------------------
# Batch (vectorized) target
# ---------------------------------------------------------------------------


def _column_pairs(batch, position: int, candidates: Optional[Sequence[int]]):
    """``(batch row, value)`` pairs of one column, for the leaf kernels.

    The selection vector and the candidate list are resolved by C-level
    iterators, so a kernel is one comprehension with its condition inline:
    no per-row Python call, no intermediate value list.
    """
    data, sel = batch.column_storage(position)
    if candidates is not None:
        rows = candidates if sel is None else map(sel.__getitem__, candidates)
        return zip(candidates, map(data.__getitem__, rows))
    if sel is not None:
        return enumerate(map(data.__getitem__, sel))
    # The backing list may have grown since the batch was cut.
    return enumerate(data if len(data) == len(batch) else islice(data, len(batch)))


def _literal_value(expr: Expr) -> Tuple[bool, object]:
    """``(True, value)`` when the expression is a literal constant."""
    if isinstance(expr, Literal):
        return True, expr.value
    return False, None


def _column_comparison_filter(
    position: int, op: ComparisonOp, value: object
) -> BatchPredicate:
    """One-pass filter for the ``column op literal`` shape."""
    pairs = _column_pairs
    if value is None:
        return lambda batch, candidates: []
    if op is ComparisonOp.EQ:  # NULL equals nothing: no guard needed
        return lambda b, c: [i for i, v in pairs(b, position, c) if v == value]
    if op is ComparisonOp.NE:
        return lambda b, c: [i for i, v in pairs(b, position, c) if v is not None and v != value]
    if op is ComparisonOp.LT:
        return lambda b, c: [i for i, v in pairs(b, position, c) if v is not None and v < value]
    if op is ComparisonOp.LE:
        return lambda b, c: [i for i, v in pairs(b, position, c) if v is not None and v <= value]
    if op is ComparisonOp.GT:
        return lambda b, c: [i for i, v in pairs(b, position, c) if v is not None and v > value]
    return lambda b, c: [i for i, v in pairs(b, position, c) if v is not None and v >= value]


def _column_like_filter(position: int, pattern: str, want: bool) -> BatchPredicate:
    """One-pass ``column [NOT] LIKE 'literal'`` (``want`` is False for NOT).

    A pattern whose only wildcards are ``%`` at its ends is a substring,
    prefix, suffix or equality test on the string itself; an inner ``%`` or
    any ``_`` needs the regular expression.  The binder admits only text
    operands, so values are ``str`` or NULL.
    """
    pairs = _column_pairs
    text = pattern.strip("%")
    if "%" in text or "_" in text:
        match = like_pattern_to_regex(pattern).match
        return lambda b, c: [
            i for i, v in pairs(b, position, c) if v is not None and (match(v) is not None) is want
        ]
    if pattern[:1] == "%" and pattern[-1:] == "%":
        return lambda b, c: [
            i for i, v in pairs(b, position, c) if v is not None and (text in v) is want
        ]
    if pattern[:1] == "%":
        return lambda b, c: [
            i for i, v in pairs(b, position, c) if v is not None and v.endswith(text) is want
        ]
    if pattern[-1:] == "%":
        return lambda b, c: [
            i for i, v in pairs(b, position, c) if v is not None and v.startswith(text) is want
        ]
    return lambda b, c: [
        i for i, v in pairs(b, position, c) if v is not None and (v == text) is want
    ]


def compile_batch_predicate(
    predicate: Expr, resolver: ColumnResolver
) -> BatchPredicate:
    """Compile a filter expression into a columnar (batch-at-a-time) evaluator.

    The returned callable keeps exactly the rows the row-level compilation
    of the same expression keeps.  Leaf predicates over bare columns are one
    comprehension over :func:`_column_pairs` with the condition inline;
    arbitrary trees fall back to the column-wise scalar evaluator and keep
    the rows whose value is ``True``.
    """
    pairs = _column_pairs
    position = None  # of the bare column a leaf shape tests
    if isinstance(predicate, (InList, Like, Between, IsNull)):
        if isinstance(predicate.operand, Column):
            position = resolver.position(predicate.operand.alias, predicate.operand.column)
    if isinstance(predicate, Comparison):
        # column op literal (either orientation) -> specialized loop.
        for column, other, op in (
            (predicate.left, predicate.right, predicate.op),
            (predicate.right, predicate.left, predicate.op.flipped()),
        ):
            if isinstance(column, Column) and isinstance(other, Literal):
                position = resolver.position(column.alias, column.column)
                return _column_comparison_filter(position, op, other.value)
    elif isinstance(predicate, InList) and position is not None:
        if all(isinstance(item, Literal) for item in predicate.items):
            literal_values = [item.value for item in predicate.items]
            non_null = {v for v in literal_values if v is not None}
            if not predicate.negated:
                return lambda b, c: [i for i, v in pairs(b, position, c) if v in non_null]
            if any(v is None for v in literal_values):
                # ``x NOT IN (..., NULL)`` is never True.
                return lambda batch, candidates: []
            return lambda b, c: [
                i for i, v in pairs(b, position, c) if v is not None and v not in non_null
            ]
    elif isinstance(predicate, Like) and position is not None:
        is_literal, pattern = _literal_value(predicate.pattern)
        if is_literal and pattern is not None:
            return _column_like_filter(position, str(pattern), not predicate.negated)
    elif isinstance(predicate, Between) and position is not None:
        low_literal, low = _literal_value(predicate.low)
        high_literal, high = _literal_value(predicate.high)
        if low_literal and high_literal:
            if low is None or high is None:
                return lambda batch, candidates: []
            want = not predicate.negated
            return lambda b, c: [
                i for i, v in pairs(b, position, c) if v is not None and (low <= v <= high) is want
            ]
    elif isinstance(predicate, IsNull) and position is not None:
        want = not predicate.negated
        return lambda b, c: [i for i, v in pairs(b, position, c) if (v is None) is want]
    elif isinstance(predicate, BoolExpr):
        compiled = [
            compile_batch_predicate(operand, resolver)
            for operand in predicate.operands
        ]
        if predicate.op is BoolConnective.AND:

            def run_and(batch, candidates: Optional[Sequence[int]]) -> List[int]:
                for check in compiled:
                    candidates = check(batch, candidates)
                    if not candidates:
                        return []
                return list(candidates)

            return run_and

        def run_or(batch, candidates: Optional[Sequence[int]]) -> List[int]:
            keep = set()
            for check in compiled:
                keep.update(check(batch, candidates))
            if candidates is None:
                return sorted(keep)
            return [i for i in candidates if i in keep]

        return run_or
    # Generic tree: evaluate column-wise, keep candidates whose value is True.
    scalar = compile_batch_scalar(predicate, resolver)

    def run_generic(batch, candidates: Optional[Sequence[int]]) -> List[int]:
        computed = scalar(batch, candidates)
        if candidates is None:
            return [i for i, value in enumerate(computed) if value is True]
        return [i for i, value in zip(candidates, computed) if value is True]

    return run_generic


def compile_batch_conjunction(
    predicates: Sequence[Expr], resolver: ColumnResolver
) -> Optional[Callable[[object], List[int]]]:
    """Compile a conjunction into a ``batch -> surviving indices`` function.

    Returns ``None`` for the empty conjunction so callers can skip building a
    selection vector entirely (every row passes).
    """
    compiled = [compile_batch_predicate(predicate, resolver) for predicate in predicates]
    if not compiled:
        return None

    def run(batch) -> List[int]:
        candidates: Optional[List[int]] = None
        for check in compiled:
            candidates = check(batch, candidates)
            if not candidates:
                return []
        return candidates

    return run


def compile_batch_scalar(expr: Expr, resolver: ColumnResolver) -> BatchScalar:
    """Compile an expression into a column-wise value evaluator.

    The returned callable computes the expression for every candidate row in
    one pass per tree node (a Python-level form of vectorization: one
    comprehension over compacted column lists instead of one closure call
    per row per node).
    """
    if isinstance(expr, Literal):
        value = expr.value

        def run_literal(batch, candidates: Optional[Sequence[int]]) -> List[object]:
            count = len(batch) if candidates is None else len(candidates)
            return [value] * count

        return run_literal
    if isinstance(expr, Column):
        position = resolver.position(expr.alias, expr.column)

        def run_column(batch, candidates: Optional[Sequence[int]]) -> List[object]:
            if candidates is None:
                return batch.values(position)
            return batch.take(position, candidates)

        return run_column
    if isinstance(expr, Param):
        raise ExecutionError(
            f"unbound parameter ?{expr.index} reached the executor; bind "
            "parameters before planning"
        )
    if isinstance(expr, Negate):
        operand = compile_batch_scalar(expr.operand, resolver)
        return lambda batch, candidates: [
            None if v is None else -v for v in operand(batch, candidates)
        ]
    if isinstance(expr, Arithmetic):
        left = compile_batch_scalar(expr.left, resolver)
        right = compile_batch_scalar(expr.right, resolver)
        op = expr.op
        if op is ArithOp.ADD:
            return lambda batch, candidates: [
                None if a is None or b is None else a + b
                for a, b in zip(left(batch, candidates), right(batch, candidates))
            ]
        if op is ArithOp.SUB:
            return lambda batch, candidates: [
                None if a is None or b is None else a - b
                for a, b in zip(left(batch, candidates), right(batch, candidates))
            ]
        if op is ArithOp.MUL:
            return lambda batch, candidates: [
                None if a is None or b is None else a * b
                for a, b in zip(left(batch, candidates), right(batch, candidates))
            ]
        # DIV/MOD keep the truncation and zero-divisor rules in one place.
        return lambda batch, candidates: [
            V.arith(op, a, b)
            for a, b in zip(left(batch, candidates), right(batch, candidates))
        ]
    if isinstance(expr, Comparison):
        left = compile_batch_scalar(expr.left, resolver)
        right = compile_batch_scalar(expr.right, resolver)
        op = expr.op
        if op is ComparisonOp.EQ:
            return lambda batch, candidates: [
                None if a is None or b is None else a == b
                for a, b in zip(left(batch, candidates), right(batch, candidates))
            ]
        if op is ComparisonOp.NE:
            return lambda batch, candidates: [
                None if a is None or b is None else a != b
                for a, b in zip(left(batch, candidates), right(batch, candidates))
            ]
        if op is ComparisonOp.LT:
            return lambda batch, candidates: [
                None if a is None or b is None else a < b
                for a, b in zip(left(batch, candidates), right(batch, candidates))
            ]
        if op is ComparisonOp.LE:
            return lambda batch, candidates: [
                None if a is None or b is None else a <= b
                for a, b in zip(left(batch, candidates), right(batch, candidates))
            ]
        if op is ComparisonOp.GT:
            return lambda batch, candidates: [
                None if a is None or b is None else a > b
                for a, b in zip(left(batch, candidates), right(batch, candidates))
            ]
        return lambda batch, candidates: [
            None if a is None or b is None else a >= b
            for a, b in zip(left(batch, candidates), right(batch, candidates))
        ]
    if isinstance(expr, IsNull):
        operand = compile_batch_scalar(expr.operand, resolver)
        if expr.negated:
            return lambda batch, candidates: [
                v is not None for v in operand(batch, candidates)
            ]
        return lambda batch, candidates: [
            v is None for v in operand(batch, candidates)
        ]
    if isinstance(expr, InList):
        operand = compile_batch_scalar(expr.operand, resolver)
        items = [compile_batch_scalar(item, resolver) for item in expr.items]
        negated = expr.negated

        def run_in(batch, candidates: Optional[Sequence[int]]) -> List[object]:
            operand_values = operand(batch, candidates)
            item_columns = [item(batch, candidates) for item in items]
            out: List[object] = []
            for i, v in enumerate(operand_values):
                answer = V.in_list(v, [column[i] for column in item_columns])
                out.append(V.logical_not(answer) if negated else answer)
            return out

        return run_in
    if isinstance(expr, Like):
        operand = compile_batch_scalar(expr.operand, resolver)
        negated = expr.negated
        is_literal, pattern_value = _literal_value(expr.pattern)
        if is_literal:
            if pattern_value is None:
                return lambda batch, candidates: [None] * _count(batch, candidates)
            regex = like_pattern_to_regex(str(pattern_value))
            if negated:
                return lambda batch, candidates: [
                    None if v is None else not regex.match(str(v))
                    for v in operand(batch, candidates)
                ]
            return lambda batch, candidates: [
                None if v is None else bool(regex.match(str(v)))
                for v in operand(batch, candidates)
            ]
        pattern = compile_batch_scalar(expr.pattern, resolver)

        def run_like(batch, candidates: Optional[Sequence[int]]) -> List[object]:
            out: List[object] = []
            for v, p in zip(operand(batch, candidates), pattern(batch, candidates)):
                answer = V.like(v, p)
                out.append(V.logical_not(answer) if negated else answer)
            return out

        return run_like
    if isinstance(expr, Between):
        operand = compile_batch_scalar(expr.operand, resolver)
        low = compile_batch_scalar(expr.low, resolver)
        high = compile_batch_scalar(expr.high, resolver)
        negated = expr.negated

        def run_between(batch, candidates: Optional[Sequence[int]]) -> List[object]:
            out: List[object] = []
            for v, lo, hi in zip(
                operand(batch, candidates),
                low(batch, candidates),
                high(batch, candidates),
            ):
                answer = V.between(v, lo, hi)
                out.append(V.logical_not(answer) if negated else answer)
            return out

        return run_between
    if isinstance(expr, Not):
        operand = compile_batch_scalar(expr.operand, resolver)
        return lambda batch, candidates: [
            V.logical_not(v) for v in operand(batch, candidates)
        ]
    if isinstance(expr, BoolExpr):
        operands = [
            compile_batch_scalar(operand, resolver) for operand in expr.operands
        ]
        combine = (
            V.logical_and if expr.op is BoolConnective.AND else V.logical_or
        )

        def run_bool(batch, candidates: Optional[Sequence[int]]) -> List[object]:
            columns = [operand(batch, candidates) for operand in operands]
            return [combine(list(row)) for row in zip(*columns)]

        return run_bool
    if isinstance(expr, Case):
        whens = [
            (
                compile_batch_scalar(condition, resolver),
                compile_batch_scalar(result, resolver),
            )
            for condition, result in expr.whens
        ]
        default = (
            compile_batch_scalar(expr.default, resolver)
            if expr.default is not None
            else None
        )

        def run_case(batch, candidates: Optional[Sequence[int]]) -> List[object]:
            # All branches are total functions (arithmetic never raises: the
            # zero-divisor case yields NULL), so branches evaluate eagerly
            # column-wise and the output picks per row.
            count = _count(batch, candidates)
            condition_columns = [condition(batch, candidates) for condition, _ in whens]
            result_columns = [result(batch, candidates) for _, result in whens]
            default_column = (
                default(batch, candidates) if default is not None else [None] * count
            )
            out: List[object] = []
            for i in range(count):
                for conditions, results in zip(condition_columns, result_columns):
                    if conditions[i] is True:
                        out.append(results[i])
                        break
                else:
                    out.append(default_column[i])
            return out

        return run_case
    raise ExecutionError(f"unsupported expression type {type(expr).__name__}")


def _count(batch, candidates: Optional[Sequence[int]]) -> int:
    return len(batch) if candidates is None else len(candidates)


# ---------------------------------------------------------------------------
# Fused single-pass kernels (the partitioned scan's residual filter)
# ---------------------------------------------------------------------------
#
# The batch compiler above runs one Python pass per tree node: every
# arithmetic or comparison node materializes an intermediate value list over
# the whole candidate set.  The fused compiler instead generates Python
# source for the *entire* filter conjunction — one row loop, one local
# assignment per tree node, short-circuiting between top-level conjuncts —
# and ``compile()``s it once per plan.  Its one caller is
# :func:`repro.executor.scan.scan_partitioned`: the conjuncts a shard cannot
# refute by segment skipping or settle in the compressed domain run through
# one such loop over the decoded columns, threaded with the surviving
# candidates.  On an arithmetic filter this replaces N list
# materializations and N closure dispatches with a single interpreted loop.
#
# The generated code implements exactly the three-valued semantics of
# :mod:`repro.sql.values` (the differential fuzzer pins this bit-for-bit);
# any node shape the generator cannot reproduce inline (CASE, parameters,
# non-literal LIKE patterns or IN lists) aborts fusion and the caller falls
# back to the per-node batch compiler.

_COMPARISON_PYTHON = {
    ComparisonOp.EQ: "==",
    ComparisonOp.NE: "!=",
    ComparisonOp.LT: "<",
    ComparisonOp.LE: "<=",
    ComparisonOp.GT: ">",
    ComparisonOp.GE: ">=",
}

_ARITH_PYTHON = {ArithOp.ADD: "+", ArithOp.SUB: "-", ArithOp.MUL: "*"}

#: Compiled-kernel cache keyed by (filter SQL, input column layout); the SQL
#: rendering round-trips the tree exactly, so equal keys mean equal kernels.
_FUSED_CACHE: Dict[Tuple[Tuple[str, ...], Tuple[Tuple[str, str], ...]], Optional[FusedFilter]] = {}
_FUSED_CACHE_LIMIT = 1024


class _FusionUnsupported(Exception):
    """Raised while generating source for a node fusion cannot express."""


class _FusedEmitter:
    """Generates the loop body of a fused filter, one statement per node."""

    def __init__(self, resolver: ColumnResolver) -> None:
        self._resolver = resolver
        self.body: List[str] = []
        self.env: Dict[str, object] = {}
        self.loaded: Dict[int, str] = {}
        self._temps = 0

    def _temp(self) -> str:
        self._temps += 1
        return f"_t{self._temps}"

    def _bind(self, prefix: str, value: object) -> str:
        name = f"_{prefix}{len(self.env)}"
        self.env[name] = value
        return name

    def _load(self, position: int) -> str:
        """Column value local, loaded at first use so conjuncts that were
        short-circuited away never touch their columns."""
        name = self.loaded.get(position)
        if name is None:
            name = f"_v{position}"
            self.loaded[position] = name
            self.body.append(f"{name} = _col{position}[_i]")
        return name

    def _guarded(
        self, t: str, operands: Sequence[Tuple[str, bool]], value: str
    ) -> bool:
        """Emit ``t = value`` guarded by NULL checks on the nullable operands.

        Only operands that can actually be NULL (columns, computed temps) are
        checked — literal operands fold away at generation time, which keeps
        the inner loop tight and avoids ``is`` comparisons against literals.
        Returns whether the result itself can be NULL.
        """
        checks = [src for src, maybe_null in operands if maybe_null]
        if not checks:
            self.body.append(f"{t} = {value}")
            return False
        nullish = " or ".join(f"{src} is None" for src in checks)
        self.body.append(f"{t} = None if {nullish} else {value}")
        return True

    def _inline_div_mod(self, expr: "Arithmetic", a: str) -> Optional[str]:
        """Inline expression for DIV/MOD by a nonzero numeric literal.

        ``V.arith`` is a per-row function call with an enum dispatch — far
        too expensive for the inner loop.  When the divisor is a literal we
        can bake its sign and magnitude into the source and reproduce the
        exact :func:`repro.sql.values.arith` rules inline: integer division
        truncates toward zero, modulo takes the sign of the dividend, and a
        float on either side means true division.  A zero or non-literal
        divisor falls back to the ``_arith`` call.
        """
        if not isinstance(expr.right, Literal):
            return None
        d = expr.right.value
        if type(d) not in (int, float) or d == 0:
            return None
        ad = abs(d)
        if expr.op is ArithOp.MOD:
            # Sign of the dividend; the divisor's sign is irrelevant.
            return f"{a} % {ad!r} if {a} >= 0 else -((-{a}) % {ad!r})"
        if isinstance(d, float):
            return f"{a} / {d!r}"
        if d > 0:
            trunc = f"{a} // {ad!r} if {a} >= 0 else -((-{a}) // {ad!r})"
        else:
            trunc = f"-({a} // {ad!r}) if {a} >= 0 else (-{a}) // {ad!r}"
        return f"({trunc}) if isinstance({a}, int) else {a} / {d!r}"

    def emit(self, expr: Expr) -> Tuple[str, bool]:
        """Emit statements computing ``expr``.

        Returns ``(source, maybe_null)``: the local name (or parenthesized
        literal) holding the value, and whether it can be SQL NULL.
        """
        if isinstance(expr, Literal):
            value = expr.value
            if value is None:
                return "None", True
            if isinstance(value, (bool, int, float, str)):
                return f"({value!r})", False
            raise _FusionUnsupported(f"literal {value!r}")
        if isinstance(expr, Column):
            return self._load(self._resolver.position(expr.alias, expr.column)), True
        if isinstance(expr, Negate):
            operand = self.emit(expr.operand)
            t = self._temp()
            return t, self._guarded(t, [operand], f"-{operand[0]}")
        if isinstance(expr, Arithmetic):
            a = self.emit(expr.left)
            b = self.emit(expr.right)
            t = self._temp()
            symbol = _ARITH_PYTHON.get(expr.op)
            if symbol is not None:
                return t, self._guarded(t, [a, b], f"{a[0]} {symbol} {b[0]}")
            inline = self._inline_div_mod(expr, a[0])
            if inline is not None:
                return t, self._guarded(t, [a], inline)
            # DIV/MOD with a non-literal (or zero) divisor keep the truncation
            # and zero-divisor rules in one place.
            op_name = self._bind("op", expr.op)
            self.env.setdefault("_arith", V.arith)
            self.body.append(f"{t} = _arith({op_name}, {a[0]}, {b[0]})")
            return t, True
        if isinstance(expr, Comparison):
            a = self.emit(expr.left)
            b = self.emit(expr.right)
            t = self._temp()
            symbol = _COMPARISON_PYTHON[expr.op]
            return t, self._guarded(t, [a, b], f"{a[0]} {symbol} {b[0]}")
        if isinstance(expr, IsNull):
            src, maybe_null = self.emit(expr.operand)
            t = self._temp()
            if not maybe_null:
                self.body.append(f"{t} = {expr.negated!r}")
            else:
                check = "is not None" if expr.negated else "is None"
                self.body.append(f"{t} = {src} {check}")
            return t, False
        if isinstance(expr, Between):
            v = self.emit(expr.operand)
            lo = self.emit(expr.low)
            hi = self.emit(expr.high)
            t = self._temp()
            inner = f"{lo[0]} <= {v[0]} <= {hi[0]}"
            if expr.negated:
                inner = f"not ({inner})"
            return t, self._guarded(t, [v, lo, hi], inner)
        if isinstance(expr, InList):
            if not all(isinstance(item, Literal) for item in expr.items):
                raise _FusionUnsupported("non-literal IN list")
            v = self.emit(expr.operand)
            values = [item.value for item in expr.items]
            non_null = self._bind("set", frozenset(x for x in values if x is not None))
            has_null = any(x is None for x in values)
            t = self._temp()
            if expr.negated:
                if has_null:
                    # x NOT IN (..., NULL): False on a match, else unknown.
                    hit = f"(False if {v[0]} in {non_null} else None)"
                else:
                    hit = f"{v[0]} not in {non_null}"
            else:
                if has_null:
                    hit = f"(True if {v[0]} in {non_null} else None)"
                else:
                    hit = f"{v[0]} in {non_null}"
            return t, self._guarded(t, [v], hit) or has_null
        if isinstance(expr, Like):
            is_literal, pattern = _literal_value(expr.pattern)
            if not is_literal:
                raise _FusionUnsupported("non-literal LIKE pattern")
            t = self._temp()
            if pattern is None:
                self.body.append(f"{t} = None")
                return t, True
            v = self.emit(expr.operand)
            match = self._bind("rx", like_pattern_to_regex(str(pattern)).match)
            check = "is None" if expr.negated else "is not None"
            return t, self._guarded(t, [v], f"{match}(str({v[0]})) {check}")
        if isinstance(expr, Not):
            operand = self.emit(expr.operand)
            t = self._temp()
            return t, self._guarded(t, [operand], f"not {operand[0]}")
        if isinstance(expr, BoolExpr):
            operands = [self.emit(operand) for operand in expr.operands]
            t = self._temp()
            names = [src for src, _ in operands]
            nullable = [src for src, maybe_null in operands if maybe_null]
            nullish = " or ".join(f"{src} is None" for src in nullable)
            unknown = f"(None if {nullish} else" if nullable else "("
            if expr.op is BoolConnective.AND:
                falsy = " or ".join(f"{src} is False" for src in names)
                self.body.append(f"{t} = False if {falsy} else {unknown} True)")
            else:
                truthy = " or ".join(f"{src} is True" for src in names)
                self.body.append(f"{t} = True if {truthy} else {unknown} False)")
            return t, bool(nullable)
        # Case, Param and anything new fall back to the per-node compiler.
        raise _FusionUnsupported(type(expr).__name__)


def _generate_fused_filter(
    filters: Sequence[Expr], resolver: ColumnResolver
) -> FusedFilter:
    emitter = _FusedEmitter(resolver)
    for predicate in filters:
        src, _ = emitter.emit(predicate)
        emitter.body.append(f"if {src} is not True: continue")
    lines = ["def _fused(_columns, _start, _end, _cand=None):"]
    for position, name in sorted(emitter.loaded.items()):
        lines.append(f"    _col{position} = _columns[{position}]")
    lines.append("    _out = []")
    lines.append("    _keep = _out.append")
    lines.append("    _it = range(_start, _end) if _cand is None else _cand")
    lines.append("    for _i in _it:")
    for statement in emitter.body:
        lines.append(f"        {statement}")
    lines.append("        _keep(_i)")
    lines.append("    return _out")
    source = "\n".join(lines)
    namespace = dict(emitter.env)
    exec(compile(source, "<fused-filter>", "exec"), namespace)
    kernel = namespace["_fused"]
    kernel._fused_source = source
    return kernel


def compile_fused_filter(
    filters: Sequence[Expr], resolver: ColumnResolver
) -> Optional[FusedFilter]:
    """Fuse a whole filter conjunction into one compiled single-pass kernel.

    Returns ``(columns, start, end[, candidates]) -> kept indices`` — a
    callable over the batch's raw backing column lists — or ``None`` when the
    conjunction is empty or contains a node fusion cannot express (the
    caller then falls back to :func:`compile_batch_conjunction`).  Kernels
    are cached per (filter SQL, column layout), so a plan executed many
    times compiles its filters once.
    """
    if not filters:
        return None
    key = (tuple(f.to_sql() for f in filters), resolver.columns)
    try:
        return _FUSED_CACHE[key]
    except KeyError:
        pass
    try:
        kernel: Optional[FusedFilter] = _generate_fused_filter(filters, resolver)
    except _FusionUnsupported:
        kernel = None
    if len(_FUSED_CACHE) >= _FUSED_CACHE_LIMIT:
        _FUSED_CACHE.clear()
    _FUSED_CACHE[key] = kernel
    return kernel


# ---------------------------------------------------------------------------
# Index probing
# ---------------------------------------------------------------------------


def index_probe_keys(index_filter: Expr) -> List[object]:
    """Keys to probe an equality index with, from the index-driving filter.

    Only the shapes the planner selects as index filters are supported:
    ``column = literal`` (either orientation) and ``column IN (literals)``.
    """
    if isinstance(index_filter, Comparison) and (
        index_filter.op is ComparisonOp.EQ
    ):
        for side in (index_filter.right, index_filter.left):
            if isinstance(side, Literal):
                return [side.value]
    if isinstance(index_filter, InList) and not index_filter.negated:
        if all(isinstance(item, Literal) for item in index_filter.items):
            return [item.value for item in index_filter.items]
    raise ExecutionError(
        f"unsupported index filter {index_filter.to_sql()!r}"
    )
