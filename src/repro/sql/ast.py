"""Abstract syntax tree for the supported SQL dialect.

The dialect covers what the Join Order Benchmark needs — select-project-join
queries over base tables with aggregate (``MIN``/``MAX``/``COUNT``/``SUM``/
``AVG``/``COUNT(*)``) outputs and equality joins — plus a full scalar
expression language and the result-shaping clauses analytic workloads need
(``GROUP BY``, ``ORDER BY ... [ASC|DESC]``, ``LIMIT [OFFSET]``,
``SELECT DISTINCT``).

WHERE clauses and select-list entries are built from one unified, typed
expression tree (:class:`Expr`): column references, literals, ``?``
parameters, arithmetic (``+ - * / %``, unary minus), all comparisons,
arbitrarily nested ``AND``/``OR``/``NOT``, ``IS [NOT] NULL``,
``[NOT] IN/LIKE/BETWEEN`` and ``CASE WHEN``.  There is no closed menu of
predicate shapes: the binder, the optimizer and both execution engines all
walk this one tree.

The AST produced by the parser is *unbound*: column references carry an
optional alias qualifier and a column name but are not yet resolved against
the catalog.  :mod:`repro.sql.binder` turns a :class:`SelectQuery` into a
:class:`~repro.sql.binder.BoundQuery` the optimizer understands.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple


class ComparisonOp(enum.Enum):
    """Binary comparison operators."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def apply(self, left, right) -> bool:
        """Apply the operator to two non-NULL values.

        NULL handling is the caller's job (:func:`repro.sql.values.compare`
        implements the three-valued rule).
        """
        if self is ComparisonOp.EQ:
            return left == right
        if self is ComparisonOp.NE:
            return left != right
        if self is ComparisonOp.LT:
            return left < right
        if self is ComparisonOp.LE:
            return left <= right
        if self is ComparisonOp.GT:
            return left > right
        return left >= right

    def flipped(self) -> "ComparisonOp":
        """The operator with its operands swapped (e.g. ``<`` becomes ``>``)."""
        flip = {
            ComparisonOp.LT: ComparisonOp.GT,
            ComparisonOp.LE: ComparisonOp.GE,
            ComparisonOp.GT: ComparisonOp.LT,
            ComparisonOp.GE: ComparisonOp.LE,
        }
        return flip.get(self, self)

    def negated(self) -> "ComparisonOp":
        """The three-valued complement (``NOT (a < b)`` is ``a >= b``)."""
        complement = {
            ComparisonOp.EQ: ComparisonOp.NE,
            ComparisonOp.NE: ComparisonOp.EQ,
            ComparisonOp.LT: ComparisonOp.GE,
            ComparisonOp.LE: ComparisonOp.GT,
            ComparisonOp.GT: ComparisonOp.LE,
            ComparisonOp.GE: ComparisonOp.LT,
        }
        return complement[self]


class ArithOp(enum.Enum):
    """Binary arithmetic operators."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"


class BoolConnective(enum.Enum):
    """N-ary boolean connectives."""

    AND = "AND"
    OR = "OR"


class AggregateFunc(enum.Enum):
    """Aggregate functions allowed in the select list."""

    MIN = "min"
    MAX = "max"
    COUNT = "count"
    SUM = "sum"
    AVG = "avg"


@dataclass(frozen=True)
class Parameter:
    """A positional ``?`` placeholder in a prepared statement.

    Parameters stand in for literals inside expressions; they are numbered
    left to right in parse order and replaced with concrete values by
    :func:`repro.sql.params.bind_parameters` before planning.
    """

    index: int

    def __str__(self) -> str:
        return "?"


@dataclass(frozen=True)
class ColumnRef:
    """A possibly qualified column reference, e.g. ``t.production_year``."""

    alias: Optional[str]
    column: str

    def __str__(self) -> str:
        if self.alias:
            return f"{self.alias}.{self.column}"
        return self.column


@dataclass(frozen=True)
class TableRef:
    """A table in the FROM clause with its alias (alias defaults to the name)."""

    table: str
    alias: str

    def __str__(self) -> str:
        if self.table == self.alias:
            return self.table
        return f"{self.table} AS {self.alias}"


# ---------------------------------------------------------------------------
# The unified expression tree
# ---------------------------------------------------------------------------


def sql_literal(value: object) -> str:
    """Render a Python value as a SQL literal (or a ``?`` placeholder)."""
    if isinstance(value, Parameter):
        return "?"
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)


class Expr:
    """Base class of every node in the expression tree."""

    #: Binding precedence used by :meth:`to_sql` to parenthesize minimally.
    precedence: int = 10

    def children(self) -> Tuple["Expr", ...]:
        """Direct sub-expressions."""
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def referenced_columns(self) -> List[ColumnRef]:
        """All column references in the tree (deduplicated, first-seen order)."""
        seen: List[ColumnRef] = []
        for node in self.walk():
            if isinstance(node, Column) and node.ref not in seen:
                seen.append(node.ref)
        return seen

    def referenced_aliases(self) -> Tuple[str, ...]:
        """Aliases referenced by this expression (deduplicated, ordered)."""
        seen: List[str] = []
        for ref in self.referenced_columns():
            if ref.alias and ref.alias not in seen:
                seen.append(ref.alias)
        return tuple(seen)

    def to_sql(self) -> str:
        """Render the expression back to SQL text."""
        raise NotImplementedError

    def _operand_sql(self, operand: "Expr") -> str:
        """Render a child, parenthesized when it binds looser than this node."""
        text = operand.to_sql()
        if operand.precedence < self.precedence:
            return f"({text})"
        return text

    def __str__(self) -> str:
        return self.to_sql()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value (``NULL``, number, string, or a folded boolean)."""

    value: object

    def to_sql(self) -> str:
        return sql_literal(self.value)


@dataclass(frozen=True)
class Param(Expr):
    """A ``?`` placeholder as an expression leaf.

    ``accepts`` holds the Python types a non-NULL value must have to meet
    the operand the ``?`` is ordered against or computed with, as the
    binder finds it; ``None`` accepts any value (as under ``=``).
    """

    parameter: Parameter
    accepts: Optional[Tuple[type, ...]] = None

    @property
    def index(self) -> int:
        """Position of the placeholder (parse order)."""
        return self.parameter.index

    def to_sql(self) -> str:
        return "?"


@dataclass(frozen=True)
class Column(Expr):
    """A column reference leaf."""

    ref: ColumnRef

    @property
    def alias(self) -> Optional[str]:
        """Table alias of the reference (``None`` while unbound)."""
        return self.ref.alias

    @property
    def column(self) -> str:
        """Column name of the reference."""
        return self.ref.column

    def to_sql(self) -> str:
        return str(self.ref)


def column(alias: Optional[str], name: str) -> Column:
    """Shorthand for building a column-reference expression."""
    return Column(ColumnRef(alias=alias, column=name))


@dataclass(frozen=True)
class Arithmetic(Expr):
    """Binary arithmetic: ``left op right``."""

    op: ArithOp
    left: Expr
    right: Expr

    @property
    def precedence(self) -> int:  # type: ignore[override]
        return 6 if self.op in (ArithOp.MUL, ArithOp.DIV, ArithOp.MOD) else 5

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def to_sql(self) -> str:
        # The parser is left-associative, so a left child of equal precedence
        # re-parses into the same tree; a *right* child of equal precedence
        # must keep its parentheses (``a - (b - c)`` is not ``a - b - c``,
        # and even ``a + (b + c)`` must round-trip tree-identically so float
        # accumulation order survives to_sql -> parse).
        left = self._operand_sql(self.left)
        right = self.right.to_sql()
        if self.right.precedence <= self.precedence:
            right = f"({right})"
        return f"{left} {self.op.value} {right}"


@dataclass(frozen=True)
class Negate(Expr):
    """Unary minus."""

    operand: Expr
    precedence = 7

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def to_sql(self) -> str:
        return f"-{self._operand_sql(self.operand)}"


@dataclass(frozen=True)
class Comparison(Expr):
    """Binary comparison between two scalar expressions."""

    op: ComparisonOp
    left: Expr
    right: Expr
    precedence = 4

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def to_sql(self) -> str:
        return (
            f"{self._operand_sql(self.left)} {self.op.value} "
            f"{self._operand_sql(self.right)}"
        )


@dataclass(frozen=True)
class IsNull(Expr):
    """``operand IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False
    precedence = 4

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def to_sql(self) -> str:
        op = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self._operand_sql(self.operand)} {op}"


@dataclass(frozen=True)
class InList(Expr):
    """``operand [NOT] IN (item, item, ...)``."""

    operand: Expr
    items: Tuple[Expr, ...]
    negated: bool = False
    precedence = 4

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,) + self.items

    def to_sql(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        rendered = ", ".join(item.to_sql() for item in self.items)
        return f"{self._operand_sql(self.operand)} {op} ({rendered})"


@dataclass(frozen=True)
class Like(Expr):
    """``operand [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards."""

    operand: Expr
    pattern: Expr
    negated: bool = False
    precedence = 4

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand, self.pattern)

    def to_sql(self) -> str:
        op = "NOT LIKE" if self.negated else "LIKE"
        return f"{self._operand_sql(self.operand)} {op} {self.pattern.to_sql()}"


@dataclass(frozen=True)
class Between(Expr):
    """``operand [NOT] BETWEEN low AND high`` (inclusive on both ends)."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False
    precedence = 4

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand, self.low, self.high)

    def to_sql(self) -> str:
        op = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"{self._operand_sql(self.operand)} {op} "
            f"{self._operand_sql(self.low)} AND {self._operand_sql(self.high)}"
        )


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation."""

    operand: Expr
    precedence = 3

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def to_sql(self) -> str:
        return f"NOT {self._operand_sql(self.operand)}"


@dataclass(frozen=True)
class BoolExpr(Expr):
    """N-ary ``AND``/``OR`` over boolean operands (flattened)."""

    op: BoolConnective
    operands: Tuple[Expr, ...]

    @property
    def precedence(self) -> int:  # type: ignore[override]
        return 2 if self.op is BoolConnective.AND else 1

    def children(self) -> Tuple[Expr, ...]:
        return self.operands

    def to_sql(self) -> str:
        joiner = f" {self.op.value} "
        return joiner.join(self._operand_sql(operand) for operand in self.operands)


def conjunction(operands: List[Expr]) -> Expr:
    """AND the operands together (flattening nested ANDs; empty -> TRUE)."""
    flattened: List[Expr] = []
    for operand in operands:
        if isinstance(operand, BoolExpr) and operand.op is BoolConnective.AND:
            flattened.extend(operand.operands)
        else:
            flattened.append(operand)
    if not flattened:
        return Literal(True)
    if len(flattened) == 1:
        return flattened[0]
    return BoolExpr(BoolConnective.AND, tuple(flattened))


def split_conjuncts(expr: Expr) -> List[Expr]:
    """Flatten a tree at its top-level ANDs into a conjunct list."""
    if isinstance(expr, BoolExpr) and expr.op is BoolConnective.AND:
        out: List[Expr] = []
        for operand in expr.operands:
            out.extend(split_conjuncts(operand))
        return out
    return [expr]


def render_conjunct(expr: Expr) -> str:
    """Render one WHERE conjunct, parenthesized when its root is AND/OR.

    The single parenthesization rule shared by unbound and bound query
    rendering and by EXPLAIN's predicate detail lines.
    """
    text = expr.to_sql()
    if expr.precedence <= 2:
        return f"({text})"
    return text


def disjunction(operands: List[Expr]) -> Expr:
    """OR the operands together (flattening nested ORs; empty -> FALSE)."""
    flattened: List[Expr] = []
    for operand in operands:
        if isinstance(operand, BoolExpr) and operand.op is BoolConnective.OR:
            flattened.extend(operand.operands)
        else:
            flattened.append(operand)
    if not flattened:
        return Literal(False)
    if len(flattened) == 1:
        return flattened[0]
    return BoolExpr(BoolConnective.OR, tuple(flattened))


@dataclass(frozen=True)
class Case(Expr):
    """``CASE WHEN cond THEN result ... [ELSE default] END``."""

    whens: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr] = None

    def children(self) -> Tuple[Expr, ...]:
        parts: List[Expr] = []
        for condition, result in self.whens:
            parts.append(condition)
            parts.append(result)
        if self.default is not None:
            parts.append(self.default)
        return tuple(parts)

    def to_sql(self) -> str:
        parts = ["CASE"]
        for condition, result in self.whens:
            parts.append(f"WHEN {condition.to_sql()} THEN {result.to_sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.to_sql()}")
        parts.append("END")
        return " ".join(parts)


def transform_expr(expr: Expr, fn) -> Expr:
    """Rebuild an expression bottom-up, applying ``fn`` to every node.

    Children are transformed first, the node is rebuilt with the transformed
    children, then ``fn`` maps the rebuilt node to its replacement.  Used for
    parameter substitution, literal lifting and alias remapping.
    """
    if isinstance(expr, Arithmetic):
        rebuilt: Expr = Arithmetic(
            expr.op, transform_expr(expr.left, fn), transform_expr(expr.right, fn)
        )
    elif isinstance(expr, Negate):
        rebuilt = Negate(transform_expr(expr.operand, fn))
    elif isinstance(expr, Comparison):
        rebuilt = Comparison(
            expr.op, transform_expr(expr.left, fn), transform_expr(expr.right, fn)
        )
    elif isinstance(expr, IsNull):
        rebuilt = IsNull(transform_expr(expr.operand, fn), negated=expr.negated)
    elif isinstance(expr, InList):
        rebuilt = InList(
            transform_expr(expr.operand, fn),
            tuple(transform_expr(item, fn) for item in expr.items),
            negated=expr.negated,
        )
    elif isinstance(expr, Like):
        rebuilt = Like(
            transform_expr(expr.operand, fn),
            transform_expr(expr.pattern, fn),
            negated=expr.negated,
        )
    elif isinstance(expr, Between):
        rebuilt = Between(
            transform_expr(expr.operand, fn),
            transform_expr(expr.low, fn),
            transform_expr(expr.high, fn),
            negated=expr.negated,
        )
    elif isinstance(expr, Not):
        rebuilt = Not(transform_expr(expr.operand, fn))
    elif isinstance(expr, BoolExpr):
        rebuilt = BoolExpr(
            expr.op, tuple(transform_expr(operand, fn) for operand in expr.operands)
        )
    elif isinstance(expr, Case):
        rebuilt = Case(
            whens=tuple(
                (transform_expr(condition, fn), transform_expr(result, fn))
                for condition, result in expr.whens
            ),
            default=(
                transform_expr(expr.default, fn)
                if expr.default is not None
                else None
            ),
        )
    else:  # leaves: Literal, Param, Column
        rebuilt = expr
    return fn(rebuilt)


# ---------------------------------------------------------------------------
# Select list and query
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One output column: an expression, optionally aggregated, or ``COUNT(*)``.

    ``COUNT(*)`` is represented with ``aggregate=AggregateFunc.COUNT`` and
    ``expr=None`` (``star`` is then True); every other item carries an
    expression (a bare column, or any computed scalar — aggregates fold over
    the expression's per-row values, so ``SUM(a*b)`` is just an aggregate
    item whose ``expr`` is ``a*b``).

    ``result_type`` is filled in by the binder (the inferred
    :class:`~repro.catalog.schema.ColumnType` of the output column, used by
    ``Cursor.description``); it is ``None`` on unbound items.
    """

    expr: Optional[Expr]
    aggregate: Optional[AggregateFunc] = None
    output_name: Optional[str] = None
    result_type: Optional[object] = None

    @property
    def star(self) -> bool:
        """True for ``COUNT(*)`` (the only expression-less select item)."""
        return self.expr is None

    @property
    def column(self) -> Optional[ColumnRef]:
        """The bare column reference, when the expression is exactly one."""
        if isinstance(self.expr, Column):
            return self.expr.ref
        return None

    def __str__(self) -> str:
        if self.aggregate is None:
            text = self.expr.to_sql()
        elif self.expr is None:
            text = f"{self.aggregate.value}(*)"
        else:
            text = f"{self.aggregate.value}({self.expr.to_sql()})"
        if self.output_name:
            text += f" AS {self.output_name}"
        return text


@dataclass(frozen=True)
class OrderItem:
    """One ``ORDER BY`` key: a column (or select-list output name) plus direction."""

    column: ColumnRef
    ascending: bool = True

    def __str__(self) -> str:
        return f"{self.column}{'' if self.ascending else ' DESC'}"


@dataclass
class SelectQuery:
    """A parsed (unbound) select-project-join query with result shaping.

    ``predicates`` holds the WHERE clause split at its top-level ``AND``s,
    in source order; each entry is an arbitrary boolean :class:`Expr`.
    """

    select_items: List[SelectItem]
    tables: List[TableRef]
    predicates: List[Expr] = field(default_factory=list)
    name: Optional[str] = None
    #: Number of ``?`` placeholders, in parse order (0 for literal-only SQL).
    param_count: int = 0
    distinct: bool = False
    group_by: List[ColumnRef] = field(default_factory=list)
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None

    def to_sql(self) -> str:
        """Render the query back to SQL text."""
        select = ",\n       ".join(str(item) for item in self.select_items) or "*"
        tables = ",\n     ".join(str(t) for t in self.tables)
        prefix = "SELECT DISTINCT" if self.distinct else "SELECT"
        text = f"{prefix} {select}\nFROM {tables}"
        if self.predicates:
            where = "\n  AND ".join(render_conjunct(p) for p in self.predicates)
            text += f"\nWHERE {where}"
        if self.group_by:
            text += "\nGROUP BY " + ", ".join(str(c) for c in self.group_by)
        if self.order_by:
            text += "\nORDER BY " + ", ".join(str(k) for k in self.order_by)
        if self.limit is not None:
            text += f"\nLIMIT {self.limit}"
            if self.offset is not None:
                text += f" OFFSET {self.offset}"
        return text + ";"

    def __str__(self) -> str:
        return self.to_sql()
