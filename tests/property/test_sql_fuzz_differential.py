"""Random-query differential fuzzer: batch engine vs. the row oracle.

Hypothesis generates small schemas' worth of data and random queries across
the full supported grammar — joins (equi and non-equi residual) x predicate
trees (nested ``AND``/``OR``/``NOT``, arithmetic comparisons, ``NOT IN``/
``NOT LIKE``/``NOT BETWEEN``, flipped BETWEEN bounds, division by zero) x
arithmetic/CASE select lists x GROUP BY x ORDER BY x LIMIT/OFFSET x DISTINCT
x all aggregates (``MIN``/``MAX``/``COUNT``/``COUNT(*)``/``SUM``/``AVG``,
including aggregates over expressions) — renders them to SQL text, runs the
text through parse → bind → plan once, then executes the *same* physical
plan on both engines and asserts they agree on:

* the exact result rows (both engines pin row order by construction:
  probe-side-major joins, first-appearance grouping, stable sorts);
* the charged work (the engine-invariance the paper's figures rely on);
* per-node actual cardinalities.

Every generated query additionally runs through the serving pipeline under
operator-level adaptive execution (``adaptive=True``), the paper's
materialize-and-rewrite simulation (``adaptive=False``) and is compared
against the reference-oracle rows, at an aggressive re-optimization
threshold so re-plans actually fire on the tiny fuzz tables.  Re-planning
may change the final plan, so rows are compared as multisets — except under
ORDER BY + LIMIT, where the planner's deterministic tie-break gives the
sort a total order over the projected output and the legs must agree on the
*exact* row list; a bare LIMIT without ORDER BY only pins the row count
(which plan-valid subset survives is legitimately plan-dependent).

A checked-in regression corpus replays previously shrunk failures plus
hand-picked nasty cases so they stay pinned even in quick dev runs.  CI
runs the ``ci`` hypothesis profile (see ``tests/property/conftest.py``):
derandomized with >= 200 examples, so every PR fuzzes an identical, green
query stream.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given, strategies as st

import repro
from repro.catalog import ColumnType, PartitionSpec, make_schema
from repro.core.triggers import ReoptimizationPolicy
from repro.engine import Database, ExecutionEngine
from repro.optimizer.injection import CardinalityInjector

#: Re-plan whenever a join estimate is off by more than 2x.
FUZZ_REOPT_THRESHOLD = 2.0

#: Partition count for the fuzz tables (0 = plain single-shard storage).
#: When set, ``groups`` is range-partitioned on ``id`` and ``records``
#: hash-partitioned on its (nullable!) ``gid``, every shard is compressed
#: after loading, and the whole differential stream — scans with zone-map
#: and routing pruning, joins, re-optimization legs — runs against the
#: partitioned storage.  Partitioned scans run their shard residual filters
#: through the batch compiler, threaded with the candidates segment skipping
#: and the compressed-domain kernels left, so this mode is that path's
#: differential coverage.  CI sets ``REPRO_FUZZ_PARTITIONS=4``.
FUZZ_PARTITIONS = int(os.environ.get("REPRO_FUZZ_PARTITIONS", "0"))


class UnderestimateJoins(CardinalityInjector):
    """Forces every multi-table estimate to one row (paper-style injection).

    The fuzz tables are tiny and exactly ANALYZEd, so natural estimates are
    near-perfect and re-optimization would never fire.  Injecting a wrong
    join cardinality — the paper's own experimental hook — makes every
    non-empty join cross the Q-error threshold, so the re-optimization legs
    genuinely exercise triggering, handover/rewrite and re-planning on the
    whole generated stream.
    """

    def lookup(self, query, subset):
        return 1.0 if len(subset) > 1 else None

    def describe(self) -> str:
        return "underestimate-joins"

# -- fixed fuzz schema -------------------------------------------------------

#: column name -> kind ("int" | "text"); ids double as join keys.
G_COLS: Dict[str, str] = {"id": "int", "tag": "text", "score": "int"}
R_COLS: Dict[str, str] = {"id": "int", "gid": "int", "val": "int", "label": "text"}

TEXT_VALUES = ["a", "b", "c", "ab"]
LIKE_PATTERNS = ["a%", "%b", "%a%", "a_", "%"]


def build_database(g_rows: List[tuple], r_rows: List[tuple]) -> Database:
    db = Database()
    groups_partition = records_partition = None
    if FUZZ_PARTITIONS > 1:
        # Range bounds inside the generators' 1..10 id domain so several
        # shards are populated; records hash-partitions its nullable FK
        # (NULL gids route to shard 0).
        groups_partition = PartitionSpec(
            method="range",
            column="id",
            bounds=tuple(range(2, 1 + FUZZ_PARTITIONS)),
        )
        records_partition = PartitionSpec(
            method="hash", column="gid", partitions=FUZZ_PARTITIONS
        )
    db.create_table(
        make_schema(
            "groups",
            [("id", ColumnType.INT), ("tag", ColumnType.TEXT), ("score", ColumnType.INT)],
            primary_key="id",
            partition_by=groups_partition,
        )
    )
    db.create_table(
        make_schema(
            "records",
            [
                ("id", ColumnType.INT),
                ("gid", ColumnType.INT),
                ("val", ColumnType.INT),
                ("label", ColumnType.TEXT),
            ],
            primary_key="id",
            foreign_keys=[("gid", "groups", "id")],
            partition_by=records_partition,
        )
    )
    db.load_rows("groups", g_rows)
    db.load_rows("records", r_rows)
    db.finalize_load()
    if FUZZ_PARTITIONS > 1:
        # Exercise the lazy-decode path: the whole stream scans compressed
        # shards (ANALYZE above saw the plain ones; values are identical).
        db.catalog.table("groups").compress()
        db.catalog.table("records").compress()
        # A re-ANALYZE counts the sealed columns through their segments: the
        # same statistics and zone maps (the epoch stays), and no decode.
        epoch = db.catalog.epoch
        db.analyze()
        assert db.catalog.epoch == epoch
        for name in ("groups", "records"):
            table = db.catalog.table(name)
            for shard in table.partitions():
                for position in range(len(table.schema.columns)):
                    segment = shard.segment_at(position)
                    assert getattr(segment, "_decoded", None) is None, (name, position)
    return db


# -- data strategies ---------------------------------------------------------

nullable_int = st.one_of(st.none(), st.integers(min_value=0, max_value=6))
nullable_text = st.one_of(st.none(), st.sampled_from(TEXT_VALUES))

g_rows_strategy = st.lists(
    st.tuples(st.just(0), nullable_text, nullable_int), min_size=0, max_size=10
).map(lambda rows: [(i + 1, tag, score) for i, (_, tag, score) in enumerate(rows)])

r_rows_strategy = st.lists(
    st.tuples(
        st.just(0),
        st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        nullable_int,
        nullable_text,
    ),
    min_size=0,
    max_size=20,
).map(
    lambda rows: [
        (i + 1, gid, val, label) for i, (_, gid, val, label) in enumerate(rows)
    ]
)


# -- query strategy ----------------------------------------------------------


def _columns_for(tables: List[Tuple[str, str]]) -> List[Tuple[str, str, str]]:
    """All (alias, column, kind) triples available to a query."""
    out = []
    for alias, table in tables:
        cols = G_COLS if table == "groups" else R_COLS
        out.extend((alias, name, kind) for name, kind in cols.items())
    return out


@st.composite
def predicate_strategy(draw, alias: str, column: str, kind: str) -> str:
    """One single-table predicate leaf rendered as SQL."""
    ref = f"{alias}.{column}"
    if kind == "text":
        template = draw(
            st.sampled_from(
                ["eq", "in", "not_in", "like", "not_like", "null", "not_null", "or"]
            )
        )
        value = draw(st.sampled_from(TEXT_VALUES))
        if template == "eq":
            return f"{ref} = '{value}'"
        if template in ("in", "not_in"):
            values = draw(
                st.lists(st.sampled_from(TEXT_VALUES), min_size=1, max_size=3)
            )
            rendered = ", ".join(f"'{v}'" for v in values)
            op = "NOT IN" if template == "not_in" else "IN"
            return f"{ref} {op} ({rendered})"
        if template == "like":
            return f"{ref} LIKE '{draw(st.sampled_from(LIKE_PATTERNS))}'"
        if template == "not_like":
            return f"{ref} NOT LIKE '{draw(st.sampled_from(LIKE_PATTERNS))}'"
        if template == "null":
            return f"{ref} IS NULL"
        if template == "not_null":
            return f"{ref} IS NOT NULL"
        return f"({ref} = '{value}' OR {ref} IS NULL)"
    template = draw(
        st.sampled_from(
            [
                "cmp",
                "arith_cmp",
                "in",
                "not_in",
                "between",
                "not_between",
                "null",
                "not_null",
                "or",
            ]
        )
    )
    value = draw(st.integers(min_value=0, max_value=7))
    if template == "cmp":
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return f"{ref} {op} {value}"
    if template == "arith_cmp":
        # Scalar arithmetic inside a predicate, divisor drawn from a range
        # that includes 0 so division-by-zero -> NULL keeps getting fuzzed.
        op = draw(st.sampled_from(["=", "<>", "<", ">="]))
        arith = draw(
            st.sampled_from(
                [
                    f"{ref} + {value}",
                    f"{ref} * 2 - 1",
                    f"{ref} % {draw(st.integers(min_value=0, max_value=3))}",
                    f"{ref} / {draw(st.integers(min_value=0, max_value=2))}",
                    f"-{ref}",
                ]
            )
        )
        return f"{arith} {op} {draw(st.integers(min_value=-3, max_value=9))}"
    if template in ("in", "not_in"):
        values = draw(
            st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=3)
        )
        op = "NOT IN" if template == "not_in" else "IN"
        return f"{ref} {op} ({', '.join(map(str, values))})"
    if template in ("between", "not_between"):
        # Bounds are drawn independently, so flipped (empty) ranges occur.
        low = draw(st.integers(min_value=0, max_value=8))
        high = draw(st.integers(min_value=0, max_value=8))
        op = "NOT BETWEEN" if template == "not_between" else "BETWEEN"
        return f"{ref} {op} {low} AND {high}"
    if template == "null":
        return f"{ref} IS NULL"
    if template == "not_null":
        return f"{ref} IS NOT NULL"
    return f"({ref} < {value} OR {ref} IS NULL)"


@st.composite
def boolean_tree_strategy(
    draw, columns: List[Tuple[str, str, str]], depth: int = 2
) -> str:
    """A nested AND/OR/NOT predicate tree rendered as parenthesized SQL."""
    if depth <= 0 or draw(st.integers(min_value=0, max_value=2)) == 0:
        alias, col, kind = draw(st.sampled_from(columns))
        leaf = draw(predicate_strategy(alias, col, kind))
        if draw(st.booleans()):
            return leaf
        return f"NOT ({leaf})"
    connective = draw(st.sampled_from(["AND", "OR"]))
    count = draw(st.integers(min_value=2, max_value=3))
    operands = [draw(boolean_tree_strategy(columns, depth - 1)) for _ in range(count)]
    tree = f" {connective} ".join(f"({operand})" for operand in operands)
    if draw(st.booleans()):
        return f"NOT ({tree})"
    return f"({tree})"


@st.composite
def int_expression_strategy(draw, columns: List[Tuple[str, str, str]]) -> str:
    """A scalar arithmetic expression over the int columns (select lists)."""
    ints = [(a, c) for a, c, kind in columns if kind == "int"]
    alias, col = draw(st.sampled_from(ints))
    ref = f"{alias}.{col}"
    shape = draw(st.sampled_from(["plus", "times", "mod", "div", "case", "mixed"]))
    k = draw(st.integers(min_value=0, max_value=4))
    if shape == "plus":
        return f"{ref} + {k}"
    if shape == "times":
        return f"{ref} * {k} - 1"
    if shape == "mod":
        return f"{ref} % {draw(st.integers(min_value=0, max_value=3))}"
    if shape == "div":
        return f"{ref} / {draw(st.integers(min_value=0, max_value=2))}"
    if shape == "case":
        return f"CASE WHEN {ref} > {k} THEN {ref} ELSE -{ref} END"
    other_alias, other_col = draw(st.sampled_from(ints))
    return f"({ref} + {other_alias}.{other_col}) * 2"


@st.composite
def sql_query_strategy(draw) -> str:
    """A random SELECT over the fuzz schema, rendered as SQL text."""
    shape = draw(st.sampled_from(["g", "r", "gr", "rr"]))
    if shape == "g":
        tables, joins = [("g", "groups")], []
    elif shape == "r":
        tables, joins = [("r", "records")], []
    elif shape == "gr":
        tables = [("g", "groups"), ("r", "records")]
        joins = ["r.gid = g.id"]
    else:  # self-join of records on the group key
        tables = [("r1", "records"), ("r2", "records")]
        joins = ["r1.gid = r2.gid"]
    columns = _columns_for(tables)

    mode = draw(st.sampled_from(["star", "plain", "agg", "group"]))
    select_parts: List[str] = []
    order_candidates: List[Tuple[str, bool]] = []  # (sql name, is output name)
    distinct = False
    group_refs: List[str] = []

    def aggregate_for(kind: str) -> str:
        funcs = (
            ["min", "max", "count", "sum", "avg"]
            if kind == "int"
            else ["min", "max", "count"]
        )
        return draw(st.sampled_from(funcs))

    def aggregate_argument(i: int) -> str:
        """An aggregate select item: over a column or over an expression."""
        if draw(st.booleans()):
            return f"count(*) AS a{i}"
        if draw(st.booleans()):
            alias, col, kind = draw(st.sampled_from(columns))
            return f"{aggregate_for(kind)}({alias}.{col}) AS a{i}"
        func = draw(st.sampled_from(["min", "max", "count", "sum", "avg"]))
        return f"{func}({draw(int_expression_strategy(columns))}) AS a{i}"

    if mode == "star":
        select_sql = "*"
        order_candidates = [(f"{alias}.{col}", False) for alias, col, _ in columns]
    elif mode == "plain":
        picked = draw(
            st.lists(st.sampled_from(columns), min_size=1, max_size=3, unique=True)
        )
        distinct = draw(st.booleans())
        computed = False
        for i, (alias, col, _) in enumerate(picked):
            if draw(st.integers(min_value=0, max_value=3)) == 0:
                # Arithmetic in the select list (always AS-named so ORDER BY
                # can address it).
                computed = True
                select_parts.append(
                    f"{draw(int_expression_strategy(columns))} AS p{i}"
                )
                order_candidates.append((f"p{i}", True))
                continue
            named = draw(st.booleans())
            select_parts.append(
                f"{alias}.{col} AS p{i}" if named else f"{alias}.{col}"
            )
            order_candidates.append((f"p{i}", True) if named else (f"{alias}.{col}", False))
        if not distinct and not computed:
            # Plain all-column queries may also sort on non-projected base
            # columns (computed select lists must sort above the projection).
            order_candidates.extend(
                (f"{alias}.{col}", False) for alias, col, _ in columns
            )
        select_sql = ", ".join(select_parts)
    elif mode == "agg":
        num = draw(st.integers(min_value=1, max_value=3))
        for i in range(num):
            select_parts.append(aggregate_argument(i))
            order_candidates.append((f"a{i}", True))
        select_sql = ", ".join(select_parts)
    else:  # group
        keys = draw(
            st.lists(st.sampled_from(columns), min_size=1, max_size=2, unique=True)
        )
        group_refs = [f"{alias}.{col}" for alias, col, _ in keys]
        for i, ref in enumerate(group_refs):
            select_parts.append(f"{ref} AS k{i}")
            order_candidates.append((f"k{i}", True))
        num_aggs = draw(st.integers(min_value=1, max_value=2))
        for i in range(num_aggs):
            select_parts.append(aggregate_argument(i))
            order_candidates.append((f"a{i}", True))
        select_sql = ", ".join(select_parts)

    predicates: List[str] = list(joins)
    if len(tables) == 2 and draw(st.integers(min_value=0, max_value=3)) == 0:
        # Non-equi join predicate: lands in the planner's residual filters.
        left_alias = tables[0][0]
        right_alias = tables[1][0]
        left_col = "score" if tables[0][1] == "groups" else "val"
        right_col = "score" if tables[1][1] == "groups" else "val"
        op = draw(st.sampled_from(["<", "<=", "<>", ">"]))
        predicates.append(
            f"{left_alias}.{left_col} {op} {right_alias}.{right_col}"
        )
    num_filters = draw(st.integers(min_value=0, max_value=2))
    for _ in range(num_filters):
        if draw(st.integers(min_value=0, max_value=2)) == 0:
            predicates.append(draw(boolean_tree_strategy(columns)))
        else:
            alias, col, kind = draw(st.sampled_from(columns))
            predicates.append(draw(predicate_strategy(alias, col, kind)))

    prefix = "SELECT DISTINCT" if distinct else "SELECT"
    sql = f"{prefix} {select_sql} FROM " + ", ".join(
        f"{table} AS {alias}" for alias, table in tables
    )
    if predicates:
        sql += " WHERE " + " AND ".join(predicates)
    if group_refs:
        sql += " GROUP BY " + ", ".join(group_refs)

    if order_candidates and draw(st.booleans()):
        num_keys = draw(
            st.integers(min_value=1, max_value=min(2, len(order_candidates)))
        )
        keys = draw(
            st.lists(
                st.sampled_from(order_candidates),
                min_size=num_keys,
                max_size=num_keys,
                unique=True,
            )
        )
        rendered = [
            f"{name}{draw(st.sampled_from(['', ' ASC', ' DESC']))}"
            for name, _ in keys
        ]
        sql += " ORDER BY " + ", ".join(rendered)

    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(min_value=0, max_value=6))}"
        if draw(st.booleans()):
            sql += f" OFFSET {draw(st.integers(min_value=0, max_value=4))}"
    return sql


# -- the differential property ----------------------------------------------


def assert_engines_agree(
    g_rows: List[tuple], r_rows: List[tuple], sql: str
) -> None:
    """Plan once, execute on both engines, require exact agreement."""
    db = build_database(g_rows, r_rows)
    planned = db.plan(sql)
    vectorized = db.executor_for(ExecutionEngine.VECTORIZED).execute(planned.plan)
    reference = db.executor_for(ExecutionEngine.REFERENCE).execute(planned.plan)
    assert list(vectorized.result.rows) == list(reference.result.rows), sql
    assert vectorized.result.columns == reference.result.columns, sql
    assert vectorized.total_work == reference.total_work, sql
    for node_id, metrics in vectorized.node_metrics.items():
        assert (
            metrics.actual_rows == reference.node_metrics[node_id].actual_rows
        ), (sql, metrics.label)
    assert_reoptimization_modes_agree(db, planned, reference, sql)


def assert_reoptimization_modes_agree(
    db: Database, planned, reference, sql: str
) -> None:
    """Adaptive and simulated re-optimization reproduce the oracle's rows.

    Both modes run at :data:`FUZZ_REOPT_THRESHOLD` through the full serving
    pipeline.  Row *order* is plan-dependent once a re-plan changes the join
    order, so rows are compared as multisets — with two LIMIT refinements:

    * ORDER BY + LIMIT: the planner appends a deterministic tie-break to
      the sort whenever a LIMIT can cut into a run of key-ties, making the
      output order total over the projected row values; every leg must
      return the oracle's *exact* row list.
    * LIMIT without ORDER BY: which subset survives is legitimately
      plan-dependent, but its size is not — the legs must agree on the row
      count (the same-plan engine legs above still pin exact rows).
    """
    query = planned.query
    expected_rows = list(reference.result.rows)
    expected = Counter(expected_rows)
    policy = ReoptimizationPolicy(threshold=FUZZ_REOPT_THRESHOLD)
    injector = UnderestimateJoins()
    for adaptive in (False, True):
        with repro.connect(db, policy=policy, adaptive=adaptive) as connection:
            ctx = connection.pipeline.run(sql=sql, injector=injector)
            if query.limit is None:
                assert Counter(ctx.rows) == expected, (f"adaptive={adaptive}", sql)
            elif query.order_by:
                assert list(ctx.rows) == expected_rows, (f"adaptive={adaptive}", sql)
            else:
                assert len(ctx.rows) == len(expected_rows), (
                    f"adaptive={adaptive}",
                    sql,
                )


@given(g_rows=g_rows_strategy, r_rows=r_rows_strategy, sql=sql_query_strategy())
@example(  # all-NULL group under SUM/AVG, NULL group key
    g_rows=[(1, None, None), (2, "a", None)],
    r_rows=[],
    sql="SELECT g.tag AS k0, sum(g.score) AS a0, avg(g.score) AS a1 "
    "FROM groups AS g GROUP BY g.tag",
)
@example(  # DESC NULLS FIRST interacting with OFFSET past part of the data
    g_rows=[(1, "a", 2), (2, "b", None), (3, "c", None), (4, "a", 5)],
    r_rows=[],
    sql="SELECT g.id FROM groups AS g ORDER BY g.score DESC LIMIT 3 OFFSET 1",
)
@example(  # join fan-out + DISTINCT + sort on projected column
    g_rows=[(1, "a", 1), (2, "a", 1)],
    r_rows=[(1, 1, 4, "x"), (2, 1, 4, "x"), (3, 2, 4, "x"), (4, 9, 4, "x")],
    sql="SELECT DISTINCT g.tag AS p0 FROM groups AS g, records AS r "
    "WHERE r.gid = g.id ORDER BY p0",
)
@example(  # COUNT(*) vs COUNT(col) with NULL join keys dropped by the join
    g_rows=[(1, "a", 1)],
    r_rows=[(1, 1, None, "x"), (2, None, 3, "y"), (3, 1, 2, None)],
    sql="SELECT count(*) AS a0, count(r.val) AS a1 "
    "FROM groups AS g, records AS r WHERE r.gid = g.id",
)
@example(  # LIMIT 0 over a grouped self-join
    g_rows=[],
    r_rows=[(1, 1, 1, "a"), (2, 1, 2, "b")],
    sql="SELECT r1.gid AS k0, count(*) AS a0 FROM records AS r1, records AS r2 "
    "WHERE r1.gid = r2.gid GROUP BY r1.gid LIMIT 0",
)
def test_random_queries_agree_across_engines(g_rows, r_rows, sql):
    assert_engines_agree(g_rows, r_rows, sql)


# -- regression corpus -------------------------------------------------------

#: Shrunk failures and hand-picked nasties, kept green forever.  Each entry is
#: ``(case id, groups rows, records rows, sql)``.
REGRESSION_CORPUS: List[Tuple[str, List[tuple], List[tuple], Optional[str]]] = [
    (
        "unnamed-outputs-order-by-positional-name",
        [(1, "b", 2), (2, "a", 1)],
        [],
        "SELECT g.tag, g.score FROM groups AS g ORDER BY col0 DESC",
    ),
    (
        "group-by-key-not-projected",
        [(1, "a", 1), (2, "a", 2), (3, "b", None)],
        [],
        "SELECT count(*) AS n FROM groups AS g GROUP BY g.tag ORDER BY n DESC",
    ),
    (
        "avg-of-single-value-is-float",
        [(1, "a", 3)],
        [],
        "SELECT avg(g.score) AS a FROM groups AS g",
    ),
    (
        "distinct-star-with-duplicate-rows-via-self-join",
        [],
        [(1, 1, 1, "x"), (2, 1, 1, "x")],
        "SELECT DISTINCT r1.val FROM records AS r1, records AS r2 "
        "WHERE r1.gid = r2.gid",
    ),
    (
        "sort-below-projection-on-unprojected-column",
        [(1, "c", None), (2, "a", 4), (3, "b", 0)],
        [],
        "SELECT g.tag FROM groups AS g ORDER BY g.score DESC, g.id ASC LIMIT 2",
    ),
    (
        "empty-tables-through-every-clause",
        [],
        [],
        "SELECT g.tag AS k0, sum(r.val) AS s FROM groups AS g, records AS r "
        "WHERE r.gid = g.id GROUP BY g.tag ORDER BY s LIMIT 3 OFFSET 1",
    ),
    (
        # Found in review: the below-projection fallback used to re-resolve
        # already-matched output aliases against the base tables, sorting on
        # the shadowed column g.score instead of the aliased output g.tag.
        "order-by-alias-shadowing-base-column-with-unprojected-key",
        [(1, "b", 9), (2, "a", 1), (3, "c", 5)],
        [],
        "SELECT g.tag AS score FROM groups AS g ORDER BY score, g.id",
    ),
    (
        "offset-without-order-preserves-engine-row-order",
        [(1, "a", 1), (2, "b", 2), (3, "c", 3)],
        [(1, 1, 1, "x"), (2, 2, 2, "y"), (3, 3, 3, "z"), (4, 2, 4, "w")],
        "SELECT g.tag, r.val FROM groups AS g, records AS r "
        "WHERE r.gid = g.id LIMIT 2 OFFSET 1",
    ),
    (
        # Division by zero yields NULL (never an error), in filters and in
        # projections alike; NULL divisors propagate NULL too.
        "division-by-zero-is-null",
        [(1, "a", 0), (2, "b", 3), (3, "c", None)],
        [],
        "SELECT g.id, g.score / g.score AS q, 6 / g.score AS w "
        "FROM groups AS g ORDER BY g.id",
    ),
    (
        # NULL propagates through every arithmetic operator; comparing the
        # NULL result filters the row (three-valued logic).
        "null-propagation-through-arithmetic",
        [(1, "a", None), (2, "b", 2)],
        [],
        "SELECT g.id, g.score * 2 + 1 AS e FROM groups AS g "
        "WHERE g.score + 1 > 0 OR g.score IS NULL ORDER BY g.id",
    ),
    (
        # Flipped BETWEEN bounds (low > high) select nothing; NOT BETWEEN on
        # the same bounds keeps every non-NULL row.
        "flipped-between-bounds",
        [(1, "a", 1), (2, "b", 5), (3, "c", None)],
        [],
        "SELECT g.id FROM groups AS g WHERE g.score BETWEEN 5 AND 1",
    ),
    (
        "not-between-flipped-bounds-keeps-non-null",
        [(1, "a", 1), (2, "b", 5), (3, "c", None)],
        [],
        "SELECT g.id FROM groups AS g WHERE g.score NOT BETWEEN 5 AND 1",
    ),
    (
        # NOT over a cross-column OR tree: De Morgan pushdown must keep the
        # three-valued semantics intact on NULL-heavy data.
        "negated-boolean-tree-with-nulls",
        [(1, None, None), (2, "a", 3), (3, "b", 0)],
        [],
        "SELECT g.id FROM groups AS g "
        "WHERE NOT (g.score < 2 OR g.tag = 'a') ORDER BY g.id",
    ),
    (
        # Non-equi residual join predicate next to the equi join.
        "residual-join-filter-next-to-equi-join",
        [(1, "a", 2), (2, "b", 8)],
        [(1, 1, 5, "x"), (2, 1, 1, "y"), (3, 2, 9, "z"), (4, 2, None, "w")],
        "SELECT g.id, r.id FROM groups AS g, records AS r "
        "WHERE r.gid = g.id AND g.score < r.val ORDER BY g.id, r.id",
    ),
    (
        # Aggregates over expressions, including a zero divisor inside SUM.
        "aggregate-over-expression-with-zero-divisor",
        [(1, "a", 0), (2, "a", 2), (3, "b", 4)],
        [],
        "SELECT g.tag AS k, sum(g.score * 2) AS d, avg(4 / g.score) AS q, "
        "count(g.score / g.score) AS n FROM groups AS g GROUP BY g.tag "
        "ORDER BY k",
    ),
    (
        # CASE in the select list over a NULL-able column.
        "case-expression-projection",
        [(1, "a", None), (2, "b", 4), (3, "c", 0)],
        [],
        "SELECT g.id, CASE WHEN g.score IS NULL THEN -1 "
        "WHEN g.score > 2 THEN 1 ELSE 0 END AS bucket "
        "FROM groups AS g ORDER BY g.id",
    ),
    (
        # Sort-key ties exactly at the LIMIT cut, sort below the projection:
        # rows 1/2/4 tie on score=1, the cut takes two of them.  The planner's
        # tie-break (the projected expressions) makes the surviving tags
        # plan-independent, so the re-optimization legs agree exactly.
        "limit-cut-through-key-ties-below-projection",
        [(1, "b", 1), (2, "a", 1), (3, "c", 0), (4, "a", 1)],
        [],
        "SELECT g.tag FROM groups AS g ORDER BY g.score DESC LIMIT 2",
    ),
    (
        # SELECT * with duplicate sort keys at the cut: the tie-break is
        # every declared column in FROM-then-schema order, a total order
        # over full rows, so the cut is deterministic across plans.
        "limit-cut-through-key-ties-select-star",
        [],
        [(1, 2, 5, "x"), (2, 1, 5, "y"), (3, 1, 2, "z"), (4, 2, 5, "w")],
        "SELECT * FROM records AS r ORDER BY r.val DESC LIMIT 2",
    ),
    (
        # Output-name sort keys with duplicates at the cut: the sort sits
        # above the projection, where the tie-break is every output column
        # positionally.
        "limit-cut-through-output-key-ties",
        [(1, "a", 9), (2, "a", 3), (3, "b", 7), (4, "a", 5)],
        [],
        "SELECT g.tag AS t, g.id AS i FROM groups AS g ORDER BY t LIMIT 2",
    ),
    (
        # Join fan-out duplicates the join key the sort runs on; the star
        # tie-break must survive a mid-query rewrite of the join.
        "limit-cut-through-join-fanout-ties-star",
        [(1, "a", 1), (2, "a", 2)],
        [(1, 1, 4, "x"), (2, 1, 4, "y"), (3, 2, 4, "z"), (4, 2, 1, "w")],
        "SELECT * FROM groups AS g, records AS r WHERE r.gid = g.id "
        "ORDER BY g.tag LIMIT 3",
    ),
    (
        # OFFSET lands inside a run of key-ties, so both edges of the window
        # cut through ties.
        "limit-offset-window-inside-key-ties",
        [(1, "d", 1), (2, "c", 1), (3, "b", 1), (4, "a", 1)],
        [],
        "SELECT g.tag FROM groups AS g ORDER BY g.score LIMIT 2 OFFSET 1",
    ),
]


@pytest.mark.parametrize(
    "g_rows,r_rows,sql",
    [case[1:] for case in REGRESSION_CORPUS],
    ids=[case[0] for case in REGRESSION_CORPUS],
)
def test_regression_corpus(g_rows, r_rows, sql):
    assert_engines_agree(g_rows, r_rows, sql)


# -- seeded mis-estimate: the adaptive path must actually re-plan ------------


def test_adaptive_replans_on_seeded_misestimate():
    """A skewed self-join whose uniformity estimate is off forces a re-plan.

    ``records.val`` is 1 for 18 of 20 rows, so the optimizer's
    ``1/n_distinct`` join selectivity underestimates the self-join output
    well past the fuzz threshold; the adaptive executor must pause at the
    breaker, re-plan at least once, and still return the oracle's rows.
    """
    r_rows = [
        (i + 1, (i % 4) + 1, 1 if i < 18 else i - 16, "x") for i in range(20)
    ]
    sql = (
        "SELECT count(*) AS n FROM records AS r1, records AS r2 "
        "WHERE r1.val = r2.val"
    )
    db = build_database([], r_rows)
    expected = db.run(sql).rows

    db = build_database([], r_rows)
    policy = ReoptimizationPolicy(threshold=FUZZ_REOPT_THRESHOLD)
    with repro.connect(db, policy=policy, adaptive=True) as connection:
        cursor = connection.execute(sql)
        rows = cursor.fetchall()
        context = cursor.context
    assert rows == expected
    assert context.reoptimized
    assert len(context.report.steps) >= 1
    assert context.report.steps[0].materialize_work == 0.0
