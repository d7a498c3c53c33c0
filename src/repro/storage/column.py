"""Column value validation and range helpers shared by the storage layer.

Every stored value is either ``None`` or the declared Python type of its
column's :class:`~repro.catalog.schema.ColumnType`, so everything downstream
(statistics, predicate evaluation, hash joins) can rely on it.
:func:`checked_value` coerces one value; loads validate a whole column
at once (:func:`checked_values`): when every value already is ``None`` or
exactly the declared Python type — what an executor result materialized
into a temporary table always is — the check is one C-level pass over the
values and nothing is converted.  Only a column in which some other type is
actually seen (``bool`` or a numeric string into INT, ``int`` into FLOAT,
...) takes the per-value path, so the stored values are the same either way.
"""

from __future__ import annotations

from operator import ne
from typing import Iterable, Sequence, Tuple

from repro.catalog.schema import ColumnDef
from repro.errors import StorageError

_NONE_TYPE = type(None)


def checked_value(definition: ColumnDef, value: object) -> object:
    """``value`` as column ``definition`` stores it.

    Raises:
        StorageError: if ``value`` is NULL and the column is not nullable.
        CatalogError: if ``value`` cannot be coerced to the column type.
    """
    if value is None and not definition.nullable:
        raise StorageError(
            f"column {definition.name!r} is not nullable but received NULL"
        )
    return definition.col_type.coerce(value)


def checked_values(
    definition: ColumnDef, values: Iterable[object]
) -> Sequence[object]:
    """``values`` as column ``definition`` stores them.

    Returns ``values`` itself (not a copy) when nothing needs converting;
    callers copy on store.  Raises like :func:`checked_value`, for the first
    offending value in order.
    """
    if not isinstance(values, (list, tuple)):
        values = list(values)
    foreign = set(map(type, values))
    foreign.discard(definition.col_type.python_type())
    if not foreign or (foreign == {_NONE_TYPE} and definition.nullable):
        return values
    return [checked_value(definition, value) for value in values]


def value_range(values: Sequence[object]) -> Tuple[object, object, int]:
    """``(minimum, maximum, NULL count)`` of ``values``.

    Builtin ``min``/``max``, so the first of equal values wins; extremes are
    ``None`` when there is no non-NULL value.  A NULL compares with nothing,
    so ``min``/``max`` run straight over ``values`` and NULLs are counted and
    filtered only once that raises.  Raises ``TypeError`` for mutually
    incomparable values.
    """
    if values and values[-1] is not None:
        try:
            return (*_extremes(values), 0)
        except TypeError:
            pass  # a NULL further up, or incomparable values (raised again below)
    nulls = values.count(None)
    present = [v for v in values if v is not None] if nulls else values
    return (*_extremes(present), nulls)


def holds_nan(values: Sequence[object], low: object, high: object) -> bool:
    """Whether ``values``, whose extremes are ``low``/``high``, hold a NaN.

    A NaN orders with nothing, so extremes taken over it bound nothing.  Only
    a FLOAT column stores floats, and then its extremes are floats too (NaN
    or not): INT and TEXT values are never scanned.
    """
    if not (isinstance(low, float) or isinstance(high, float)):
        return False
    return any(map(ne, values, values))


def _extremes(values: Sequence[object]) -> Tuple[object, object]:
    if not values:
        return None, None
    return min(values), max(values)
