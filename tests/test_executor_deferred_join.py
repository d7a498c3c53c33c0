"""A hash join lays its output out on first read; MIN/MAX/COUNT(*) never read it.

Differential checks of the deferred join layout: the fold over the factorized
match must equal the fold over the forcibly expanded batch and the reference
engine's answer — first-of-equals included, so results are compared by
``repr`` (``0.0`` vs ``-0.0``, ``1`` vs ``True``) — and every other consumer
(``SUM``, a residual filter, a handover to a temp table or an adaptive
intermediate) must see exactly the rows an eagerly laid out join has.  A
reader of whole columns (``values``, ``rows``: a handover, ``SUM``, a group
key, the parent join's key) gathers them per side and composes no selection
vector either; only a reader of the vectors themselves (``column_storage``,
``restrict``, a projection) lays the join out.
"""

from __future__ import annotations

import random

import pytest

import repro
from repro.core import ReoptimizationInterceptor, ReoptimizationPolicy
from repro.engine import QueryPipeline
from repro.executor import reference
from repro.executor.batch import ColumnBatch
from repro.executor.explain import explain_plan
from repro.executor.operators import aggregate_result, filter_result, join_results
from repro.executor.reference import ResultSet
from repro.sql.ast import (
    AggregateFunc,
    Arithmetic,
    ArithOp,
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
    SelectItem,
)
from repro.sql.binder import BoundJoin

LEFT = [("l", "k"), ("l", "k2"), ("l", "x"), ("l", "f")]
RIGHT = [("r", "k"), ("r", "k2"), ("r", "y"), ("r", "g")]
ONE_KEY = [BoundJoin("l", "k", "r", "k")]
TWO_KEYS = ONE_KEY + [BoundJoin("l", "k2", "r", "k2")]
#: Equal under ``==`` and ``<``, different objects: which one a MIN/MAX
#: returns is decided by which row comes first.
TIES = [0.0, -0.0, 1, True, 1.0, 0, False, None, 2.5, -3]


def agg(func: AggregateFunc, alias: str, column: str) -> SelectItem:
    return SelectItem(Column(ColumnRef(alias, column)), func, f"{func.value}_{alias}_{column}")


COUNT_STAR = SelectItem(None, AggregateFunc.COUNT, "n")
FOLDABLE = [
    agg(AggregateFunc.MIN, "l", "x"),
    COUNT_STAR,
    agg(AggregateFunc.MAX, "l", "x"),
    agg(AggregateFunc.MIN, "r", "y"),
    agg(AggregateFunc.MAX, "r", "y"),
    agg(AggregateFunc.MIN, "l", "f"),
    agg(AggregateFunc.MAX, "r", "g"),
    agg(AggregateFunc.MIN, "r", "k"),
]


def sides(seed: int, left_rows: int, right_rows: int, keys: int = 6):
    """Two inputs with repeated, NULL and composite keys and tied payloads."""
    rng = random.Random(seed)

    def rows(count):
        return [
            (
                rng.choice([None] + list(range(keys))),
                rng.choice([None, "a", "b"]),
                rng.choice(TIES),
                rng.choice(TIES),
            )
            for _ in range(count)
        ]

    return rows(left_rows), rows(right_rows)


def layouts(monkeypatch):
    """Count how often a deferred join had to lay its output out."""
    calls = []
    lay_out = ColumnBatch._lay_out

    def counting(self):
        calls.append(self)
        return lay_out(self)

    monkeypatch.setattr(ColumnBatch, "_lay_out", counting)
    return calls


def three_ways(left_rows, right_rows, joins, items, residual=None):
    """Fold the factorized join, the expanded join and the oracle's join."""
    def joined():
        batch = join_results(
            ColumnBatch.from_rows(LEFT, left_rows), ColumnBatch.from_rows(RIGHT, right_rows), joins
        )
        return batch if residual is None else filter_result(batch, [residual])

    folded = aggregate_result(joined(), items).rows
    expanded_batch = joined()
    expanded_batch.column_storage(0)  # forces the layout
    pairs = expanded_batch.rows
    assert joined().rows == pairs  # gathered per side, nothing laid out
    expanded = aggregate_result(expanded_batch, items).rows
    oracle_join = reference.join_results(
        ResultSet(LEFT, left_rows), ResultSet(RIGHT, right_rows), joins
    )
    if residual is not None:
        oracle_join = reference.filter_result(oracle_join, [residual])
    assert pairs == oracle_join.rows
    oracle = reference.aggregate_result(oracle_join, items).rows
    return repr(folded), repr(expanded), repr(oracle)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("shape", [(9, 40), (40, 9), (25, 25)], ids=["build-left", "build-right", "even"])
@pytest.mark.parametrize("joins", [ONE_KEY, TWO_KEYS], ids=["one-key", "composite"])
def test_fold_equals_expanded_equals_reference(monkeypatch, seed, shape, joins):
    calls = layouts(monkeypatch)
    left_rows, right_rows = sides(seed, *shape)
    folded, expanded, oracle = three_ways(left_rows, right_rows, joins, FOLDABLE)
    assert folded == expanded == oracle
    # Only the forced expansion laid anything out: the fold read no pair.
    assert len(calls) == 1


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", [(9, 40), (40, 9)], ids=["build-left", "build-right"])
@pytest.mark.parametrize("build_keys", [[0, 1, 2], [0, 1, 2, 1, 0]], ids=["distinct", "repeated"])
def test_every_probe_row_hitting_keeps_no_positions(monkeypatch, seed, shape, build_keys):
    calls = layouts(monkeypatch)
    left_rows, right_rows = sides(seed, *shape)
    rng = random.Random(seed)
    small, big = sorted((left_rows, right_rows), key=len)
    small[:] = [(k, "a") + small[i][2:] for i, k in enumerate(build_keys)]
    big[:] = [(rng.randrange(3), "a") + row[2:] for row in big]
    batch = join_results(
        ColumnBatch.from_rows(LEFT, left_rows), ColumnBatch.from_rows(RIGHT, right_rows), TWO_KEYS
    )
    assert batch._match[3] is None and len(batch) >= len(big)
    folded, expanded, oracle = three_ways(left_rows, right_rows, TWO_KEYS, FOLDABLE)
    assert folded == expanded == oracle
    assert len(calls) == 1


def test_ties_keep_the_first_of_equals_on_either_side():
    # -0.0 first on the probe side, True first on the build side (and the
    # build rows are visited in the order the output first shows them, not
    # in build order: key 2 is probed before key 1).
    left_rows = [(1, "a", 1, 0.0), (2, "a", True, -0.0), (2, "a", 1.0, 0.0)]
    right_rows = [(2, "a", -0.0, 5), (2, "a", 0.0, 5), (1, "a", 0.0, 5), (7, "a", -9, 5)]
    items = [
        agg(AggregateFunc.MIN, "r", "y"),
        agg(AggregateFunc.MAX, "r", "y"),
        agg(AggregateFunc.MIN, "l", "x"),
        agg(AggregateFunc.MAX, "l", "x"),
        COUNT_STAR,
    ]
    folded, expanded, oracle = three_ways(left_rows, right_rows, ONE_KEY, items)
    assert folded == expanded == oracle == "[(-0.0, -0.0, True, True, 5)]"


def test_empty_output_counts_zero_and_folds_to_null(monkeypatch):
    calls = layouts(monkeypatch)
    left_rows = [(1, "a", 1, 1), (None, "a", 2, 2)]
    right_rows = [(2, "a", 3, 3), (None, "a", 4, 4)]
    batch = join_results(
        ColumnBatch.from_rows(LEFT, left_rows), ColumnBatch.from_rows(RIGHT, right_rows), ONE_KEY
    )
    assert len(batch) == 0
    assert aggregate_result(batch, FOLDABLE).rows == [(None, 0) + (None,) * 6]
    assert not calls
    assert batch.rows == []


def test_a_non_foldable_item_reads_the_pairs_and_still_agrees(monkeypatch):
    calls = layouts(monkeypatch)
    left_rows, right_rows = sides(3, 30, 12)
    # Keep SUM/AVG away from None/bool mixes: ints only in the summed column.
    right_rows = [(k, k2, i, g) for i, (k, k2, _, g) in enumerate(right_rows)]
    for extra in (
        agg(AggregateFunc.SUM, "r", "y"),
        agg(AggregateFunc.AVG, "r", "y"),
        agg(AggregateFunc.COUNT, "l", "x"),
        SelectItem(
            Arithmetic(ArithOp.ADD, Column(ColumnRef("r", "y")), Literal(1)),
            AggregateFunc.MIN,
            "computed",
        ),
    ):
        del calls[:]
        items = [FOLDABLE[0], COUNT_STAR, extra, FOLDABLE[4]]
        batch = join_results(
            ColumnBatch.from_rows(LEFT, left_rows),
            ColumnBatch.from_rows(RIGHT, right_rows),
            ONE_KEY,
        )
        got = aggregate_result(batch, items).rows
        # Every pair is read, as whole columns gathered per side: no
        # selection vector is composed for them.
        assert not calls, extra
        oracle = reference.aggregate_result(
            reference.join_results(
                ResultSet(LEFT, left_rows), ResultSet(RIGHT, right_rows), ONE_KEY
            ),
            items,
        ).rows
        assert repr(got) == repr(oracle)


@pytest.mark.parametrize("seed", range(4))
def test_a_residual_filter_on_the_top_join_reads_the_pairs(seed):
    left_rows, right_rows = sides(seed, 30, 14)
    left_rows = [(k, k2, i, f) for i, (k, k2, _, f) in enumerate(left_rows)]
    right_rows = [(k, k2, 2 * i, g) for i, (k, k2, _, g) in enumerate(right_rows)]
    residual = Comparison(
        ComparisonOp.LT, Column(ColumnRef("l", "x")), Column(ColumnRef("r", "y"))
    )
    folded, expanded, oracle = three_ways(
        left_rows, right_rows, ONE_KEY, FOLDABLE, residual=residual
    )
    assert folded == expanded == oracle


def test_every_read_path_sees_the_eager_rows():
    left_rows, right_rows = sides(5, 20, 35)
    want = reference.join_results(
        ResultSet(LEFT, left_rows), ResultSet(RIGHT, right_rows), TWO_KEYS
    ).rows

    def fresh():
        return join_results(
            ColumnBatch.from_rows(LEFT, left_rows), ColumnBatch.from_rows(RIGHT, right_rows), TWO_KEYS
        )

    assert len(fresh()) == len(want)
    assert fresh().rows == want
    assert fresh().values(2) == [row[2] for row in want]
    assert fresh().column_values("r", "y") == [row[6] for row in want]
    data, sel = fresh().column_storage(6)
    assert [data[i] for i in sel] == [row[6] for row in want]
    keep = list(range(0, len(want), 2))
    assert fresh().restrict(keep).rows == want[::2]
    assert fresh().project([("r", "g"), ("l", "k")]).rows == [(row[7], row[0]) for row in want]
    assert fresh().take(3, keep) == [row[3] for row in want[::2]]
    for position in range(len(LEFT + RIGHT)):  # either side, repeated build keys
        assert fresh().values(position) == [row[position] for row in want]
    glued = ColumnBatch.concat(fresh(), fresh())
    assert glued.rows == [row + row for row in want]
    # The next join reads it like any batch.
    third = ColumnBatch.from_rows([("z", "k")], [(k,) for k in range(4)])
    again = join_results(fresh(), third, [BoundJoin("l", "k", "z", "k")])
    assert sorted(again.rows, key=repr) == sorted(
        (row + (row[0],) for row in want if row[0] in range(4)), key=repr
    )


@pytest.mark.parametrize("third_rows", [3, 400], ids=["child-probes", "child-builds"])
def test_columns_are_gathered_through_a_join_of_joins(monkeypatch, third_rows):
    calls = layouts(monkeypatch)
    left_rows, right_rows = sides(7, 20, 35)
    third = [(k % 5,) for k in range(third_rows)]
    on_third = [BoundJoin("l", "k", "z", "k")]
    top = join_results(
        join_results(
            ColumnBatch.from_rows(LEFT, left_rows), ColumnBatch.from_rows(RIGHT, right_rows), ONE_KEY
        ),
        ColumnBatch.from_rows([("z", "k")], third),
        on_third,
    )
    want = reference.join_results(
        reference.join_results(ResultSet(LEFT, left_rows), ResultSet(RIGHT, right_rows), ONE_KEY),
        ResultSet([("z", "k")], third),
        on_third,
    ).rows
    assert len(top) == len(want) > 0
    # The child's key was gathered on its sides too: nothing is laid out yet.
    assert not calls
    for position in range(len(top.columns)):
        assert top.values(position) == [row[position] for row in want]
    assert top.rows == want
    # The child was (its parent indexes its vectors); the top join never.
    assert len(calls) == 1 and calls[0] is not top
    assert top.restrict(list(range(len(want)))).rows == want


# -- through the engine: SQL, staged rounds, handovers ---------------------------

FOLDED_SQL = (
    "SELECT min(t.shares) AS lo, max(c.symbol) AS hi, count(*) AS n, min(c.sector) AS s "
    "FROM company AS c, trades AS t WHERE c.id = t.company_id AND t.shares < 2500"
)
RESIDUAL_SQL = (
    "SELECT min(t.shares) AS lo, max(c.symbol) AS hi, count(*) AS n "
    "FROM company AS c, trades AS t WHERE c.id = t.company_id AND t.shares < c.id * 30"
)
#: The only join is the trigger: the skewed symbol is under-estimated ~50x.
TRIGGER_SQL = (
    "SELECT min(t.shares) AS lo, max(t.venue) AS hi, count(*) AS n "
    "FROM company AS c, trades AS t WHERE c.symbol = 'SYM1' AND c.id = t.company_id"
)


@pytest.mark.parametrize("sql", [FOLDED_SQL, RESIDUAL_SQL, TRIGGER_SQL])
def test_statements_agree_with_the_reference_engine(shared_stock_db, sql):
    planned = shared_stock_db.plan(sql)
    runs = {
        engine: shared_stock_db.executor_for(engine).execute(planned.plan)
        for engine in ("vectorized", "reference")
    }
    assert repr(runs["vectorized"].result.rows) == repr(runs["reference"].result.rows)
    texts = {engine: explain_plan(planned.plan, run) for engine, run in runs.items()}
    assert texts["vectorized"] == texts["reference"]
    assert runs["vectorized"].total_work == runs["reference"].total_work
    assert runs["vectorized"].rows_processed == runs["reference"].rows_processed


def test_a_folded_statement_lays_nothing_out(shared_stock_db, monkeypatch):
    calls = layouts(monkeypatch)
    run = shared_stock_db.run(FOLDED_SQL)
    assert run.execution.result.rows[0][2] > 0
    assert not calls


def kept_temp_rows(db, engine, sql, **policy):
    db.executor = db.executor_for(engine)
    pipeline = QueryPipeline(
        db,
        [
            ReoptimizationInterceptor(
                ReoptimizationPolicy(threshold=4, **policy), keep_temp_tables=True, adaptive=False
            )
        ],
    )
    ctx = pipeline.run(sql)
    assert ctx.reoptimized
    step = ctx.report.steps[0]
    table = db.catalog.table(step.temp_table)
    return ctx.rows, step, table.schema.column_names, list(table.iter_rows())


@pytest.mark.parametrize(
    "knobs",
    [{}, {"trigger_site": "highest"}, {"min_query_seconds": 1e-6}],
    ids=["lowest", "highest", "cutoff"],
)
def test_the_top_join_as_trigger_hands_over_its_rows(stock_db_factory, knobs):
    got = kept_temp_rows(stock_db_factory(), "vectorized", TRIGGER_SQL, **knobs)
    want = kept_temp_rows(stock_db_factory(), "reference", TRIGGER_SQL, **knobs)
    assert got[0] == want[0]
    assert got[2] == want[2] and got[3] == want[3] and len(got[3]) == got[1].temp_rows
    assert (got[1].charged_work, got[1].materialize_work) == (
        want[1].charged_work, want[1].materialize_work
    )


def test_the_adaptive_intermediate_holds_the_expanded_rows(stock_db_factory, monkeypatch):
    calls = layouts(monkeypatch)
    handed = {}
    for engine in ("vectorized", "reference"):
        db = stock_db_factory()
        db.executor = db.executor_for(engine)
        create = db.create_temp_table_from_result

        def recording(name, result, columns, create=create, engine=engine, **kwargs):
            table = create(name, result, columns, **kwargs)
            handed[engine] = (table.schema.column_names, list(table.iter_rows()))
            return table

        db.create_temp_table_from_result = recording
        with repro.connect(db, policy=ReoptimizationPolicy(threshold=4), adaptive=True) as conn:
            cursor = conn.execute(TRIGGER_SQL)
            assert cursor.context.reoptimized
            handed[engine] += (cursor.fetchall(),)
    assert handed["vectorized"] == handed["reference"]
    assert handed["vectorized"][1]
    assert not calls  # the handed-over columns were gathered per side


def test_a_pinned_deferred_join_survives_the_finished_round(shared_stock_db, monkeypatch):
    calls = layouts(monkeypatch)
    planned = shared_stock_db.plan(TRIGGER_SQL)
    top = planned.plan.join_nodes()[-1]
    staged = shared_stock_db.executor.execute_staged(
        planned.plan, lambda join, rows: True, finish=True, last=True
    )
    assert staged.trigger is top
    # The aggregate above folded it; the pin kept the match, not the pairs.
    assert not calls
    assert len(staged.trigger_result) == top.actual_rows == staged.result.rows[0][2]
    oracle = shared_stock_db.executor_for("reference").execute_staged(
        planned.plan, lambda join, rows: True, finish=True, last=True
    )
    # (The oracle scans full width; compare on the columns the plan kept.)
    columns = staged.trigger_result.columns
    assert staged.trigger_result.rows == oracle.trigger_result.project(columns).rows
    assert not calls  # a handover reads columns: gathered per side
    staged.trigger_result.column_storage(0)
    assert len(calls) == 1
    assert (
        staged.trigger_result.project(columns).rows
        == oracle.trigger_result.project(columns).rows
    )
    assert staged.result.rows == oracle.result.rows
