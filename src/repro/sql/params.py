"""Positional query parameters (``?`` placeholders).

Prepared statements parse and bind SQL containing ``?`` placeholders once;
each execution substitutes concrete values into the bound template with
:func:`bind_parameters`.  :func:`parameterize` is the inverse: it lifts every
literal of the filter and residual expressions out into a parameter list,
which is how the test suite checks that the prepared path returns exactly the
rows of the literal SQL for every workload query.

Parameters appear anywhere an expression does inside WHERE predicates, and
nowhere else: the binder rejects one in the select list.  Join predicates
are column-to-column and constant filters fold away their literals at bind
time, so neither carries parameters.  A value must be able to meet the
operand its ``?`` is ordered against or computed with (the binder records
the types it accepts); ``=``, ``<>`` and ``IN`` take any value, and a
mismatched one simply matches nothing.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import ParameterError
from repro.sql.ast import (
    Expr,
    Like,
    Literal,
    Param,
    Parameter,
    transform_expr,
)
from repro.sql.binder import BoundQuery


def bind_parameters(query: BoundQuery, params: Sequence[object]) -> BoundQuery:
    """Substitute positional values for every ``?`` in a bound query.

    Returns a new :class:`BoundQuery` with ``param_count`` 0; the template
    query is left untouched so a prepared statement can be executed many
    times.

    Raises:
        ParameterError: if the number of values does not match the number of
            placeholders, a LIKE pattern is bound to a non-string, or a
            value cannot meet the operand its ``?`` is ordered against or
            computed with (``Param.accepts``).
    """
    values = tuple(params)
    if len(values) != query.param_count:
        raise ParameterError(
            f"query {query.name!r} takes {query.param_count} parameter(s), "
            f"got {len(values)}"
        )
    if query.param_count == 0:
        return query

    def substitute(node: Expr) -> Expr:
        if isinstance(node, Param):
            value = values[node.index]
            if not (
                node.accepts is None or value is None or isinstance(value, node.accepts)
            ):
                raise ParameterError(
                    f"parameter {node.index + 1} is {value!r}, which cannot "
                    f"meet its operand (expected "
                    f"{' or '.join(t.__name__ for t in node.accepts)})"
                )
            return Literal(value)
        if isinstance(node, Like):
            pattern = node.pattern
            if isinstance(pattern, Literal) and not isinstance(
                pattern.value, str
            ):
                raise ParameterError(
                    f"LIKE pattern parameter must be a string, got "
                    f"{pattern.value!r}"
                )
        return node

    filters = {
        alias: [transform_expr(predicate, substitute) for predicate in predicates]
        for alias, predicates in query.filters.items()
    }
    residuals = [
        transform_expr(predicate, substitute) for predicate in query.residuals
    ]
    return BoundQuery(
        name=query.name,
        aliases=list(query.aliases),
        alias_tables=dict(query.alias_tables),
        select_items=list(query.select_items),
        filters=filters,
        joins=list(query.joins),
        residuals=residuals,
        constant_filters=list(query.constant_filters),
        param_count=0,
        distinct=query.distinct,
        group_by=list(query.group_by),
        order_by=list(query.order_by),
        limit=query.limit,
        offset=query.offset,
    )


def parameterize(query: BoundQuery) -> Tuple[BoundQuery, List[object]]:
    """Replace every filter literal with a ``?`` and return the values.

    The parameters are numbered in the order ``BoundQuery.to_sql`` renders
    the predicates (per-alias filters in FROM order, then joins — which
    carry no literals — then residual join filters), so the returned values
    line up with the placeholders of the re-parsed SQL text.
    """
    values: List[object] = []

    def lift(node: Expr) -> Expr:
        if isinstance(node, Literal):
            values.append(node.value)
            return Param(Parameter(len(values) - 1))
        return node

    filters: Dict[str, List[Expr]] = {}
    for alias in query.aliases:
        predicates = query.filters_for(alias)
        if predicates:
            filters[alias] = [transform_expr(p, lift) for p in predicates]
    residuals = [transform_expr(p, lift) for p in query.residuals]
    parameterized = BoundQuery(
        name=query.name,
        aliases=list(query.aliases),
        alias_tables=dict(query.alias_tables),
        select_items=list(query.select_items),
        filters=filters,
        joins=list(query.joins),
        residuals=residuals,
        constant_filters=list(query.constant_filters),
        param_count=len(values),
        distinct=query.distinct,
        group_by=list(query.group_by),
        order_by=list(query.order_by),
        limit=query.limit,
        offset=query.offset,
    )
    return parameterized, values
