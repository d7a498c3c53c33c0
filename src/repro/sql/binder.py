"""Name resolution, type inference and constant folding.

The binder turns a parsed query into a bound query: it resolves table
aliases against the catalog, resolves and type-checks every expression,
constant-folds literal-only subtrees, and classifies the WHERE clause's
conjuncts — after CNF normalization by :mod:`repro.optimizer.rewrite` — into

* **per-alias filter expressions** (pushed down to the scans),
* **equi-join predicates** (``a.x = b.y`` across two aliases, the edges the
  join-order enumerator works on),
* **residual join filters** (any other multi-table predicate — non-equi
  comparisons, cross-table ``OR`` trees — applied at the first join that
  covers their tables), and
* **constant filters** (conjuncts that folded to a literal: ``WHERE 1 = 1``
  is recorded and dropped, ``WHERE 2 < 1`` additionally marks the whole
  query ``always_false`` so the planner prunes execution).

Result shaping is validated here too:

* ``GROUP BY`` keys are resolved against the catalog, and every
  non-aggregate select item may only reference group-key columns (the
  standard grouped-select rule);
* ``ORDER BY`` keys are resolved against the *output* of the query: for a
  projected/aggregated select list they become references to output columns
  (by ``AS`` name or by matching a select item), for ``SELECT *`` they stay
  qualified base-table columns;
* ``LIMIT``/``OFFSET``/``DISTINCT`` are carried through unchanged.

Every bound select item carries its inferred
:class:`~repro.catalog.schema.ColumnType` (``result_type``): arithmetic
follows numeric widening (INT op INT -> INT, anything FLOAT -> FLOAT),
comparisons and boolean trees are BOOL (surfaced as INT, SQLite-style),
``CASE`` takes the common type of its branches, ``COUNT`` is INT and ``AVG``
FLOAT.  ``Cursor.description`` reads these type codes directly.

The binder is the one front door for queries: :meth:`repro.engine.Database.plan`
takes SQL text or a :class:`BoundQuery` from :meth:`repro.engine.Database.parse`,
and the planner plans only bound queries made here or shape-preserving
rewrites of them (:func:`repro.sql.builder.collapse_aliases`,
:func:`repro.sql.params.bind_parameters`).  So each rule is checked once: the
grammar's own (``*`` only inside ``COUNT``, ``OFFSET`` only after ``LIMIT``,
bare columns beside ungrouped aggregates) by the parser, every other one
here; nothing downstream checks them again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.schema import ColumnType
from repro.errors import BindError, ParameterError
from repro.sql import values
from repro.sql.ast import (
    AggregateFunc,
    Arithmetic,
    Between,
    BoolConnective,
    BoolExpr,
    Case,
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    OrderItem,
    Param,
    SelectItem,
    SelectQuery,
    render_conjunct,
    transform_expr,
)


def output_column_name(item: SelectItem, position: int) -> str:
    """Output column name of one select item (``AS`` name or ``colN``).

    This is the naming rule shared by the binder (ORDER BY key resolution)
    and both executor engines.  ``Cursor.description`` deliberately renders
    friendlier display names (``count(c.id)``, ``c.symbol``) for unnamed
    items; give an item an ``AS`` name to make its display name ORDER
    BY-addressable.
    """
    return item.output_name or f"col{position}"


class ExprType(enum.Enum):
    """Inferred static type of an expression."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    BOOL = "bool"
    #: The type of a bare ``NULL`` literal (compatible with everything).
    NULL = "null"
    #: The type of an unbound ``?`` parameter (compatible with everything).
    ANY = "any"

    def is_numeric(self) -> bool:
        """Usable as an arithmetic operand."""
        return self in (ExprType.INT, ExprType.FLOAT, ExprType.NULL, ExprType.ANY)

    def is_textual(self) -> bool:
        """Usable as a LIKE operand/pattern."""
        return self in (ExprType.TEXT, ExprType.NULL, ExprType.ANY)

    def is_boolean(self) -> bool:
        """Usable as a predicate / boolean-connective operand."""
        return self in (ExprType.BOOL, ExprType.NULL, ExprType.ANY)

    def column_type(self) -> Optional[ColumnType]:
        """The :class:`ColumnType` surfaced by ``Cursor.description``.

        BOOL maps to INT (the engines store Python booleans, SQLite-style);
        NULL/ANY carry no type code.
        """
        if self is ExprType.INT:
            return ColumnType.INT
        if self is ExprType.FLOAT:
            return ColumnType.FLOAT
        if self is ExprType.TEXT:
            return ColumnType.TEXT
        if self is ExprType.BOOL:
            return ColumnType.INT
        return None


_COLUMN_TO_EXPR_TYPE = {
    ColumnType.INT: ExprType.INT,
    ColumnType.FLOAT: ExprType.FLOAT,
    ColumnType.TEXT: ExprType.TEXT,
}


def _widen(left: ExprType, right: ExprType) -> ExprType:
    """Numeric widening: FLOAT wins, NULL/ANY defer to the other side."""
    if ExprType.FLOAT in (left, right):
        return ExprType.FLOAT
    if left in (ExprType.NULL, ExprType.ANY):
        return right if right is ExprType.INT else left
    return left


def _comparable(left: ExprType, right: ExprType) -> bool:
    """Whether two operand types may meet in a comparison/IN/BETWEEN."""
    if left in (ExprType.NULL, ExprType.ANY) or right in (
        ExprType.NULL,
        ExprType.ANY,
    ):
        return True
    if left.is_numeric() and right.is_numeric():
        return True
    return left is right


_NUMBERS = (int, float)  # a bool is an int

#: Python value types a ``?`` ordered against an operand of each type accepts.
_ORDERED_WITH = {ExprType.INT: _NUMBERS, ExprType.FLOAT: _NUMBERS, ExprType.TEXT: (str,)}


def _accepting(expr: Expr, accepts: Optional[Tuple[type, ...]]) -> Expr:
    """``expr`` accepting only values of ``accepts`` types, if it is a ``?``
    or a ``CASE`` that may yield one (each THEN/ELSE result, recursively).

    :func:`repro.sql.params.bind_parameters` checks them, so a value that
    cannot meet its operand fails there, not as a ``TypeError`` mid-query.
    """
    if accepts is None:
        return expr
    if isinstance(expr, Param):
        return Param(expr.parameter, accepts)
    if isinstance(expr, Case):
        return Case(
            whens=tuple(
                (condition, _accepting(result, accepts))
                for condition, result in expr.whens
            ),
            default=None if expr.default is None else _accepting(expr.default, accepts),
        )
    return expr


def _common_type(left: ExprType, right: ExprType, context: str) -> ExprType:
    """Common result type of two CASE branches (numeric widening applies)."""
    if left in (ExprType.NULL, ExprType.ANY):
        return right
    if right in (ExprType.NULL, ExprType.ANY):
        return left
    if left is right:
        return left
    if left.is_numeric() and right.is_numeric():
        return _widen(left, right)
    raise BindError(
        f"{context} mixes incompatible result types "
        f"{left.value} and {right.value}"
    )


@dataclass(frozen=True)
class ConstantFilter:
    """A WHERE conjunct that folded to a constant at bind time.

    ``expr`` is the original (bound) expression, kept for EXPLAIN and SQL
    rendering; ``value`` is the folded three-valued result.  A value other
    than ``True`` makes the whole query return no rows.
    """

    expr: Expr
    value: object

    @property
    def passes(self) -> bool:
        """Whether the constant filter keeps rows."""
        return values.is_truthy(self.value)

    def to_sql(self) -> str:
        """Render the original predicate text."""
        return self.expr.to_sql()

    def __str__(self) -> str:
        return self.to_sql()


@dataclass(frozen=True)
class BoundSortKey:
    """A resolved ``ORDER BY`` key.

    ``alias`` is ``""`` when the key refers to an output column of the
    projected/aggregated result (named per :func:`output_column_name`), and a
    FROM-clause alias when the query is ``SELECT *`` and the key refers to a
    base-table column.  The executor resolves the pair against the final
    result's columns at runtime.
    """

    alias: str
    column: str
    ascending: bool = True

    def to_sql(self) -> str:
        """Render back to SQL."""
        name = f"{self.alias}.{self.column}" if self.alias else self.column
        return name if self.ascending else f"{name} DESC"

    def __str__(self) -> str:
        return self.to_sql()


@dataclass(frozen=True)
class BoundJoin:
    """A bound equi-join predicate between two aliases."""

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str

    def aliases(self) -> Tuple[str, str]:
        """The two aliases this join connects."""
        return self.left_alias, self.right_alias

    def touches(self, alias: str) -> bool:
        """True if the join references ``alias`` on either side."""
        return alias in (self.left_alias, self.right_alias)

    def column_for(self, alias: str) -> str:
        """Return the join column on the side belonging to ``alias``."""
        if alias == self.left_alias:
            return self.left_column
        if alias == self.right_alias:
            return self.right_column
        raise BindError(f"join {self} does not reference alias {alias!r}")

    def other(self, alias: str) -> Tuple[str, str]:
        """Return ``(alias, column)`` of the side opposite to ``alias``."""
        if alias == self.left_alias:
            return self.right_alias, self.right_column
        if alias == self.right_alias:
            return self.left_alias, self.left_column
        raise BindError(f"join {self} does not reference alias {alias!r}")

    def to_sql(self) -> str:
        """Render back to SQL."""
        return (
            f"{self.left_alias}.{self.left_column} = "
            f"{self.right_alias}.{self.right_column}"
        )

    def __str__(self) -> str:
        return self.to_sql()


@dataclass
class BoundQuery:
    """A name-resolved select-project-join query.

    Attributes:
        name: optional workload-level query name (e.g. ``"q07a"``).
        aliases: FROM-clause aliases in declaration order.
        alias_tables: mapping of alias to catalog table name.
        select_items: bound output columns (with inferred ``result_type``).
        filters: per-alias single-table filter expressions.
        joins: equi-join predicates.
        residuals: multi-table non-equi-join filter expressions, applied at
            the first join covering their aliases.
        constant_filters: conjuncts that folded to a constant at bind time.
        param_count: number of unbound ``?`` placeholders still present in
            the filter expressions (0 once parameters are substituted).
        distinct: drop duplicate output rows.
        group_by: fully qualified grouping keys (empty when ungrouped).
        order_by: resolved sort keys over the query output.
        limit: maximum output rows (``None`` for no limit).
        offset: output rows skipped before the limit applies.
    """

    name: Optional[str]
    aliases: List[str]
    alias_tables: Dict[str, str]
    select_items: List[SelectItem]
    filters: Dict[str, List[Expr]] = field(default_factory=dict)
    joins: List[BoundJoin] = field(default_factory=list)
    residuals: List[Expr] = field(default_factory=list)
    constant_filters: List[ConstantFilter] = field(default_factory=list)
    param_count: int = 0
    distinct: bool = False
    group_by: List[ColumnRef] = field(default_factory=list)
    order_by: List[BoundSortKey] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None

    @property
    def always_false(self) -> bool:
        """True when a constant filter makes the query return no rows."""
        return any(not constant.passes for constant in self.constant_filters)

    def table_for(self, alias: str) -> str:
        """Catalog table name for ``alias``."""
        try:
            return self.alias_tables[alias]
        except KeyError:
            raise BindError(f"unknown alias {alias!r} in query {self.name!r}") from None

    def filters_for(self, alias: str) -> List[Expr]:
        """Filter expressions that apply to ``alias`` (possibly empty)."""
        return self.filters.get(alias, [])

    def num_tables(self) -> int:
        """Number of FROM-clause tables."""
        return len(self.aliases)

    def to_sql(self) -> str:
        """Render the bound query back to SQL text."""
        select_items = self.select_items
        if select_items:
            select = ",\n       ".join(str(item) for item in select_items)
        else:
            select = "*"
        tables = ",\n     ".join(
            alias if alias == self.alias_tables[alias] else f"{self.alias_tables[alias]} AS {alias}"
            for alias in self.aliases
        )
        clauses: List[str] = []
        for alias in self.aliases:
            clauses.extend(render_conjunct(p) for p in self.filters_for(alias))
        clauses.extend(j.to_sql() for j in self.joins)
        clauses.extend(render_conjunct(p) for p in self.residuals)
        clauses.extend(render_conjunct(c.expr) for c in self.constant_filters)
        prefix = "SELECT DISTINCT" if self.distinct else "SELECT"
        text = f"{prefix} {select}\nFROM {tables}"
        if clauses:
            text += "\nWHERE " + "\n  AND ".join(clauses)
        if self.group_by:
            text += "\nGROUP BY " + ", ".join(str(c) for c in self.group_by)
        if self.order_by:
            text += "\nORDER BY " + ", ".join(k.to_sql() for k in self.order_by)
        if self.limit is not None:
            text += f"\nLIMIT {self.limit}"
            if self.offset is not None:
                text += f" OFFSET {self.offset}"
        return text + ";"


def fold_constants(expr: Expr) -> Expr:
    """Fold literal-only subtrees bottom-up into :class:`Literal` nodes.

    Expressions must already be bound and type-checked; evaluation uses the
    exact value semantics of :mod:`repro.sql.values`, so a folded result is
    bit-identical to what either engine would compute at runtime
    (``1/0`` folds to NULL, ``1 = NULL`` to NULL, ...).
    """

    def fold(node: Expr) -> Expr:
        if isinstance(node, Negate) and isinstance(node.operand, Literal):
            return Literal(values.negate(node.operand.value))
        if isinstance(node, Arithmetic):
            if isinstance(node.left, Literal) and isinstance(node.right, Literal):
                return Literal(
                    values.arith(node.op, node.left.value, node.right.value)
                )
        elif isinstance(node, Comparison):
            if isinstance(node.left, Literal) and isinstance(node.right, Literal):
                return Literal(
                    values.compare(node.op, node.left.value, node.right.value)
                )
        elif isinstance(node, IsNull):
            if isinstance(node.operand, Literal):
                answer = node.operand.value is None
                return Literal(not answer if node.negated else answer)
        elif isinstance(node, InList):
            if isinstance(node.operand, Literal) and all(
                isinstance(item, Literal) for item in node.items
            ):
                answer = values.in_list(
                    node.operand.value, [item.value for item in node.items]
                )
                return Literal(
                    values.logical_not(answer) if node.negated else answer
                )
        elif isinstance(node, Like):
            if isinstance(node.operand, Literal) and isinstance(
                node.pattern, Literal
            ):
                answer = values.like(node.operand.value, node.pattern.value)
                return Literal(
                    values.logical_not(answer) if node.negated else answer
                )
        elif isinstance(node, Between):
            if (
                isinstance(node.operand, Literal)
                and isinstance(node.low, Literal)
                and isinstance(node.high, Literal)
            ):
                answer = values.between(
                    node.operand.value, node.low.value, node.high.value
                )
                return Literal(
                    values.logical_not(answer) if node.negated else answer
                )
        elif isinstance(node, Not):
            if isinstance(node.operand, Literal):
                return Literal(values.logical_not(node.operand.value))
        elif isinstance(node, BoolExpr):
            if all(isinstance(operand, Literal) for operand in node.operands):
                operand_values = [operand.value for operand in node.operands]
                if node.op is BoolConnective.AND:
                    return Literal(values.logical_and(operand_values))
                return Literal(values.logical_or(operand_values))
        elif isinstance(node, Case):
            if all(
                isinstance(condition, Literal) and isinstance(result, Literal)
                for condition, result in node.whens
            ) and (node.default is None or isinstance(node.default, Literal)):
                for condition, result in node.whens:
                    if values.is_truthy(condition.value):
                        return result
                return node.default if node.default is not None else Literal(None)
        return node

    return transform_expr(expr, fold)


class Binder:
    """Resolves parsed queries against a :class:`~repro.catalog.catalog.Catalog`."""

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog

    def bind(self, query: SelectQuery) -> BoundQuery:
        """Bind a parsed query.

        Raises:
            BindError: on unknown tables/columns, ambiguous references, type
                errors inside expressions, or select lists violating the
                grouping rules.
        """
        # Imported here: repro.optimizer.rewrite depends only on the AST, but
        # a top-level import would make sql <-> optimizer circular.
        from repro.optimizer.rewrite import to_cnf

        alias_tables: Dict[str, str] = {}
        for table_ref in query.tables:
            if table_ref.alias in alias_tables:
                raise BindError(f"duplicate alias {table_ref.alias!r}")
            if table_ref.table not in self._catalog:
                raise BindError(f"unknown table {table_ref.table!r}")
            alias_tables[table_ref.alias] = table_ref.table

        aliases = list(alias_tables)
        bound = BoundQuery(
            name=query.name,
            aliases=aliases,
            alias_tables=alias_tables,
            select_items=[],
            param_count=query.param_count,
            distinct=query.distinct,
            limit=query.limit,
            offset=query.offset,
        )
        bound.select_items = [
            self._bind_select_item(item, bound) for item in query.select_items
        ]
        bound.group_by = [self._resolve_column(ref, bound) for ref in query.group_by]
        self._check_grouping_rules(bound)
        bound.order_by = self._bind_order_by(query.order_by, bound)

        for predicate in query.predicates:
            resolved, expr_type = self._bind_expr(predicate, bound)
            if not expr_type.is_boolean():
                raise BindError(
                    f"WHERE clause term {predicate.to_sql()!r} is not a "
                    f"boolean expression (it has type {expr_type.value})"
                )
            folded = fold_constants(resolved)
            if isinstance(folded, Literal):
                bound.constant_filters.append(
                    ConstantFilter(expr=resolved, value=folded.value)
                )
                continue
            for clause in to_cnf(folded):
                self._classify_conjunct(clause, bound)
        return bound

    # -- predicate classification -----------------------------------------

    def _classify_conjunct(self, clause: Expr, bound: BoundQuery) -> None:
        """File one CNF clause as a filter, equi-join or residual."""
        clause = fold_constants(clause)
        if isinstance(clause, Literal):
            bound.constant_filters.append(
                ConstantFilter(expr=clause, value=clause.value)
            )
            return
        aliases = clause.referenced_aliases()
        if not aliases:
            raise BindError(
                f"predicate {clause.to_sql()!r} references no FROM-clause "
                "column and does not fold to a constant"
            )
        join = self._as_equi_join(clause)
        if join is not None:
            bound.joins.append(join)
            return
        if len(aliases) == 1:
            bound.filters.setdefault(aliases[0], []).append(clause)
            return
        bound.residuals.append(clause)

    @staticmethod
    def _as_equi_join(clause: Expr) -> Optional[BoundJoin]:
        """Match the canonical equi-join shape ``a.x = b.y`` (two aliases)."""
        if not isinstance(clause, Comparison) or clause.op is not ComparisonOp.EQ:
            return None
        if not isinstance(clause.left, Column) or not isinstance(
            clause.right, Column
        ):
            return None
        left, right = clause.left.ref, clause.right.ref
        if left.alias == right.alias:
            return None
        return BoundJoin(
            left_alias=left.alias,
            left_column=left.column,
            right_alias=right.alias,
            right_column=right.column,
        )

    # -- expression binding ------------------------------------------------

    def _resolve_column(self, ref: ColumnRef, bound: BoundQuery) -> ColumnRef:
        """Return a fully qualified column reference, validating existence."""
        if ref.alias is not None:
            table = bound.table_for(ref.alias)
            schema = self._catalog.schema(table)
            if not schema.has_column(ref.column):
                raise BindError(
                    f"table {table!r} (alias {ref.alias!r}) has no column {ref.column!r}"
                )
            return ref
        candidates = [
            alias
            for alias in bound.aliases
            if self._catalog.schema(bound.table_for(alias)).has_column(ref.column)
        ]
        if not candidates:
            raise BindError(f"column {ref.column!r} not found in any FROM table")
        if len(candidates) > 1:
            raise BindError(
                f"column {ref.column!r} is ambiguous between aliases {candidates}"
            )
        return ColumnRef(alias=candidates[0], column=ref.column)

    def _column_expr_type(self, ref: ColumnRef, bound: BoundQuery) -> ExprType:
        table = bound.table_for(ref.alias)
        col_type = self._catalog.schema(table).column(ref.column).col_type
        return _COLUMN_TO_EXPR_TYPE[col_type]

    def _bind_expr(
        self, expr: Expr, bound: BoundQuery
    ) -> Tuple[Expr, ExprType]:
        """Resolve, type-check and rebuild one expression tree."""
        if isinstance(expr, Literal):
            return expr, self._literal_type(expr.value)
        if isinstance(expr, Param):
            return expr, ExprType.ANY
        if isinstance(expr, Column):
            ref = self._resolve_column(expr.ref, bound)
            return Column(ref), self._column_expr_type(ref, bound)
        if isinstance(expr, Negate):
            operand, operand_type = self._bind_expr(expr.operand, bound)
            if not operand_type.is_numeric():
                raise BindError(
                    f"unary minus needs a numeric operand, got "
                    f"{operand_type.value} in {expr.to_sql()!r}"
                )
            return Negate(_accepting(operand, _NUMBERS)), operand_type
        if isinstance(expr, Arithmetic):
            left, left_type = self._bind_expr(expr.left, bound)
            right, right_type = self._bind_expr(expr.right, bound)
            if not left_type.is_numeric() or not right_type.is_numeric():
                raise BindError(
                    f"arithmetic {expr.op.value!r} needs numeric operands, got "
                    f"{left_type.value} and {right_type.value} in "
                    f"{expr.to_sql()!r}"
                )
            return Arithmetic(
                expr.op, _accepting(left, _NUMBERS), _accepting(right, _NUMBERS)
            ), _widen(left_type, right_type)
        if isinstance(expr, Comparison):
            left, left_type = self._bind_expr(expr.left, bound)
            right, right_type = self._bind_expr(expr.right, bound)
            if not _comparable(left_type, right_type):
                raise BindError(
                    f"cannot compare {left_type.value} with {right_type.value} "
                    f"in {expr.to_sql()!r}"
                )
            if expr.op not in (ComparisonOp.EQ, ComparisonOp.NE):
                # Equality of mismatched values is false; ordering raises.
                left = _accepting(left, _ORDERED_WITH.get(right_type))
                right = _accepting(right, _ORDERED_WITH.get(left_type))
            return Comparison(expr.op, left, right), ExprType.BOOL
        if isinstance(expr, IsNull):
            operand, _ = self._bind_expr(expr.operand, bound)
            return IsNull(operand, negated=expr.negated), ExprType.BOOL
        if isinstance(expr, InList):
            operand, operand_type = self._bind_expr(expr.operand, bound)
            items: List[Expr] = []
            for item in expr.items:
                bound_item, item_type = self._bind_expr(item, bound)
                if not _comparable(operand_type, item_type):
                    raise BindError(
                        f"IN list item {item.to_sql()!r} has type "
                        f"{item_type.value}, incompatible with "
                        f"{operand_type.value} operand {expr.operand.to_sql()!r}"
                    )
                items.append(bound_item)
            return (
                InList(operand, tuple(items), negated=expr.negated),
                ExprType.BOOL,
            )
        if isinstance(expr, Like):
            operand, operand_type = self._bind_expr(expr.operand, bound)
            pattern, pattern_type = self._bind_expr(expr.pattern, bound)
            if not operand_type.is_textual() or not pattern_type.is_textual():
                raise BindError(
                    f"LIKE needs text operands, got {operand_type.value} and "
                    f"{pattern_type.value} in {expr.to_sql()!r}"
                )
            return Like(operand, pattern, negated=expr.negated), ExprType.BOOL
        if isinstance(expr, Between):
            operand, operand_type = self._bind_expr(expr.operand, bound)
            low, low_type = self._bind_expr(expr.low, bound)
            high, high_type = self._bind_expr(expr.high, bound)
            if not _comparable(operand_type, low_type) or not _comparable(
                operand_type, high_type
            ):
                raise BindError(
                    f"BETWEEN bounds must be comparable with the operand in "
                    f"{expr.to_sql()!r}"
                )
            bounds_accept = _ORDERED_WITH.get(operand_type)
            operand_accepts = _ORDERED_WITH.get(low_type) or _ORDERED_WITH.get(high_type)
            return (
                Between(
                    _accepting(operand, operand_accepts),
                    _accepting(low, bounds_accept),
                    _accepting(high, bounds_accept),
                    negated=expr.negated,
                ),
                ExprType.BOOL,
            )
        if isinstance(expr, Not):
            operand, operand_type = self._bind_expr(expr.operand, bound)
            if not operand_type.is_boolean():
                raise BindError(
                    f"NOT needs a boolean operand, got {operand_type.value} "
                    f"in {expr.to_sql()!r}"
                )
            return Not(operand), ExprType.BOOL
        if isinstance(expr, BoolExpr):
            operands: List[Expr] = []
            for operand in expr.operands:
                bound_operand, operand_type = self._bind_expr(operand, bound)
                if not operand_type.is_boolean():
                    raise BindError(
                        f"argument of {expr.op.value} must be a boolean "
                        f"expression, got {operand_type.value} in "
                        f"{operand.to_sql()!r}"
                    )
                operands.append(bound_operand)
            return BoolExpr(expr.op, tuple(operands)), ExprType.BOOL
        if isinstance(expr, Case):
            whens: List[Tuple[Expr, Expr]] = []
            result_type: Optional[ExprType] = None
            for condition, result in expr.whens:
                bound_condition, condition_type = self._bind_expr(condition, bound)
                if not condition_type.is_boolean():
                    raise BindError(
                        f"CASE WHEN condition must be boolean, got "
                        f"{condition_type.value} in {condition.to_sql()!r}"
                    )
                bound_result, branch_type = self._bind_expr(result, bound)
                result_type = (
                    branch_type
                    if result_type is None
                    else _common_type(result_type, branch_type, "CASE expression")
                )
                whens.append((bound_condition, bound_result))
            default: Optional[Expr] = None
            if expr.default is not None:
                default, default_type = self._bind_expr(expr.default, bound)
                result_type = _common_type(
                    result_type, default_type, "CASE expression"
                )
            return Case(whens=tuple(whens), default=default), (
                result_type or ExprType.NULL
            )
        raise BindError(f"unsupported expression type {type(expr).__name__}")

    @staticmethod
    def _literal_type(value: object) -> ExprType:
        if value is None:
            return ExprType.NULL
        if isinstance(value, bool):
            return ExprType.BOOL
        if isinstance(value, int):
            return ExprType.INT
        if isinstance(value, float):
            return ExprType.FLOAT
        return ExprType.TEXT

    # -- select list -------------------------------------------------------

    def _bind_select_item(self, item: SelectItem, bound: BoundQuery) -> SelectItem:
        if item.expr is None:  # COUNT(*)
            return SelectItem(
                expr=None,
                aggregate=item.aggregate,
                output_name=item.output_name,
                result_type=ColumnType.INT,
            )
        if any(isinstance(node, Param) for node in item.expr.walk()):
            raise ParameterError(
                f"a ? parameter may appear only in WHERE, not in the select "
                f"item {item.expr.to_sql()!r}"
            )
        expr, expr_type = self._bind_expr(item.expr, bound)
        expr = fold_constants(expr)
        if item.aggregate in (AggregateFunc.SUM, AggregateFunc.AVG):
            if not expr_type.is_numeric():
                ref = item.column
                if ref is not None and ref.alias is not None:
                    # Keep the precise message for the common bare-column case.
                    resolved = self._resolve_column(ref, bound)
                    table = bound.table_for(resolved.alias)
                    raise BindError(
                        f"{item.aggregate.value.upper()}({resolved}) is not "
                        f"defined for text column {table}.{resolved.column}"
                    )
                raise BindError(
                    f"{item.aggregate.value.upper()}({expr.to_sql()}) needs a "
                    f"numeric argument, got {expr_type.value}"
                )
        result_type = self._aggregate_result_type(item.aggregate, expr_type)
        return SelectItem(
            expr=expr,
            aggregate=item.aggregate,
            output_name=item.output_name,
            result_type=result_type,
        )

    @staticmethod
    def _aggregate_result_type(
        aggregate: Optional[AggregateFunc], operand: ExprType
    ) -> Optional[ColumnType]:
        """Output type code of a select item (numeric widening rules)."""
        if aggregate is AggregateFunc.COUNT:
            return ColumnType.INT
        if aggregate is AggregateFunc.AVG:
            return ColumnType.FLOAT
        # MIN/MAX/SUM and plain expressions keep the operand's type.
        return operand.column_type()

    def _check_grouping_rules(self, bound: BoundQuery) -> None:
        """Enforce the grouped-select rules on the bound select list.

        Ungrouped aggregates beside bare columns are the parser's rule
        (it reports the offending token).
        """
        if not bound.group_by:
            return
        if not bound.select_items:
            raise BindError("SELECT * cannot be combined with GROUP BY")
        keys = {(ref.alias, ref.column) for ref in bound.group_by}
        for item in bound.select_items:
            if item.aggregate is not None or item.expr is None:
                continue
            for ref in item.expr.referenced_columns():
                if (ref.alias, ref.column) not in keys:
                    raise BindError(
                        f"column {ref} must appear in the GROUP BY "
                        "clause or be used in an aggregate function"
                    )

    # -- ORDER BY ----------------------------------------------------------

    def _bind_order_by(
        self, order_by: List[OrderItem], bound: BoundQuery
    ) -> List[BoundSortKey]:
        """Resolve ORDER BY keys against the query output.

        Keys normally resolve to *output* columns (``alias=""``), which the
        optimizer sorts above the projection.  An ungrouped, aggregate-free
        query may also order by columns it does not project; then every key
        is resolved against the base tables (``alias`` set) and the sort is
        planned below the projection.  ``SELECT DISTINCT`` requires every
        sort key in the select list (PostgreSQL's rule), since sorting
        non-projected columns of de-duplicated rows is meaningless.
        """
        if not order_by:
            return []
        if not bound.select_items:
            # SELECT *: the output keeps qualified base-table columns.
            return [
                BoundSortKey(
                    alias=(resolved := self._resolve_column(item.column, bound)).alias,
                    column=resolved.column,
                    ascending=item.ascending,
                )
                for item in order_by
            ]
        plain_query = not bound.group_by and all(
            select_item.aggregate is None for select_item in bound.select_items
        )
        can_sort_below = (
            plain_query
            and not bound.distinct
            and all(item.column is not None for item in bound.select_items)
        )
        matches = [self._match_output(item, bound) for item in order_by]
        if all(match is not None for match in matches):
            # The executor resolves output columns *by name*; a duplicate of
            # a matched name (repeated AS alias, or an alias colliding with
            # another item's synthetic positional ``colN``) would silently
            # address the wrong column at runtime.  Queries that can sort
            # below the projection fall through to base columns instead,
            # where output names are never consulted; everything else must
            # reject the ambiguity.
            names = [
                output_column_name(select_item, position)
                for position, select_item in enumerate(bound.select_items)
            ]
            conflicted = next(
                (
                    names[position]
                    for position in matches
                    if names.count(names[position]) > 1
                ),
                None,
            )
            if conflicted is None:
                return [
                    BoundSortKey(
                        alias="",
                        column=names[position],
                        ascending=item.ascending,
                    )
                    for item, position in zip(order_by, matches)
                ]
            if not can_sort_below:
                raise BindError(
                    f"ORDER BY resolves to output name {conflicted!r}, which "
                    "names more than one select item"
                )
        unmatched = next(
            (item for item, match in zip(order_by, matches) if match is None),
            None,
        )
        if unmatched is None:
            # Every key matched but an output name was conflicted: sort on
            # the matched items' base columns below the projection.
            return [
                BoundSortKey(
                    alias=bound.select_items[position].column.alias,
                    column=bound.select_items[position].column.column,
                    ascending=item.ascending,
                )
                for item, position in zip(order_by, matches)
            ]
        if not plain_query:
            # A typo'd column should report "no such column", not steer the
            # user toward projecting a column that does not exist.
            self._resolve_column(unmatched.column, bound)
            raise BindError(
                f"ORDER BY column {unmatched.column} must appear in the select "
                "list (order by an output name to sort on an aggregate)"
            )
        if bound.distinct:
            # As above: a typo'd column reports "no such column" first.
            self._resolve_column(unmatched.column, bound)
            raise BindError(
                f"for SELECT DISTINCT, ORDER BY column {unmatched.column} must "
                "appear in the select list"
            )
        if not can_sort_below:
            # Computed select items exist: the sort must happen above the
            # projection, so every key has to name an output column.
            self._resolve_column(unmatched.column, bound)
            raise BindError(
                f"ORDER BY column {unmatched.column} must appear in the select "
                "list when the select list contains computed expressions"
            )
        # Sort below the projection: keys that matched an output column keep
        # pointing at that select item's *base* column (so an AS alias still
        # wins even when it shadows a real column name); the rest resolve
        # against the base tables directly.
        keys: List[BoundSortKey] = []
        for item, match in zip(order_by, matches):
            if match is not None:
                base = bound.select_items[match].column
            else:
                base = self._resolve_column(item.column, bound)
            keys.append(
                BoundSortKey(
                    alias=base.alias, column=base.column, ascending=item.ascending
                )
            )
        return keys

    def _match_output(self, item: OrderItem, bound: BoundQuery) -> Optional[int]:
        """Match one ORDER BY key to a select-list position, if possible.

        Whether the matched item is then addressed by output name (sort
        above the projection) or by its base column (sort below) is the
        caller's decision.
        """
        ref = item.column
        # A bare name matching an explicit AS output name wins over column
        # resolution.  Two select items sharing the AS name make the
        # reference ambiguous (PostgreSQL's rule) — there is no position to
        # pick, not even for a below-projection sort.
        if ref.alias is None:
            positions = [
                position
                for position, select_item in enumerate(bound.select_items)
                if select_item.output_name == ref.column
            ]
            if len(positions) > 1:
                raise BindError(f"ORDER BY {ref.column!r} is ambiguous")
            if positions:
                return positions[0]
        try:
            resolved = self._resolve_column(ref, bound)
        except BindError:
            # Not a real column either: accept the synthetic positional
            # ``colN`` name (how BoundQuery.to_sql renders unnamed outputs).
            # Real columns take precedence over the fallback, so a table
            # column literally named ``col0`` is never shadowed by it.
            if ref.alias is None:
                for position, select_item in enumerate(bound.select_items):
                    if (
                        select_item.output_name is None
                        and f"col{position}" == ref.column
                    ):
                        return position
            return None
        for position, select_item in enumerate(bound.select_items):
            if select_item.aggregate is None and select_item.column == resolved:
                return position
        return None
