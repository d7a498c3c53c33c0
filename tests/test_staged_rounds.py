"""A re-optimization round is one staged run: nothing executes twice.

Covers :meth:`Executor.execute_staged` — the round both re-optimization loops
drive — and what the rewrite loop builds on it: every plan node runs at most
once per round and the trigger sub-join is never re-executed for its temp
table; results leave the round's memo once their parent consumed them; a
round cut short leaves no stale actuals on a cached plan; and the loop's temp
tables no longer move the catalog epoch.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro
from repro.core import ReoptimizationInterceptor, ReoptimizationPolicy
from repro.engine import PlanCache, QueryPipeline
from repro.engine.pipeline import FeedbackHarvestInterceptor, PlanCacheInterceptor
from repro.executor.explain import explain_plan
from repro.optimizer.plan import JoinNode, ScanNode

SKEWED_SQL = (
    "SELECT count(t.id) AS n FROM company AS c, trades AS t "
    "WHERE c.symbol = 'SYM1' AND c.id = t.company_id"
)
# Two trades sub-joins that both violate a threshold of 4 (the skewed symbol
# is under-estimated ~50x on either side) plus a well-estimated company pair.
THREE_WAY_SQL = (
    "SELECT count(t.id) AS n FROM company AS c, trades AS t, trades AS u "
    "WHERE c.symbol = 'SYM1' AND c.id = t.company_id AND c.id = u.company_id "
    "AND u.shares < 40"
)


class CountingOperators:
    """An operator set that counts the scans and joins it is asked to run."""

    def __init__(self, base) -> None:
        self._base = base
        self.calls: Counter = Counter()

    def __getattr__(self, name):
        return getattr(self._base, name)

    def scan_table(self, *args, **kwargs):
        self.calls["scan"] += 1
        return self._base.scan_table(*args, **kwargs)

    def join_results(self, *args, **kwargs):
        self.calls["join"] += 1
        return self._base.join_results(*args, **kwargs)

    def index_join_results(self, *args, **kwargs):
        self.calls["join"] += 1
        return self._base.index_join_results(*args, **kwargs)

    def cross_join_results(self, *args, **kwargs):
        self.calls["join"] += 1
        return self._base.cross_join_results(*args, **kwargs)


def instrument(db):
    """Count operator calls and record every staged round of ``db``'s executor."""
    executor = db.executor
    executor._ops = ops = CountingOperators(executor._ops)
    rounds = []
    run_round = executor.execute_staged

    def recording_round(plan, *args, **kwargs):
        staged = run_round(plan, *args, **kwargs)
        rounds.append((plan, staged))
        return staged

    executor.execute_staged = recording_round
    return ops, rounds


def rewrite_loop(db, sql, policy, cache=None):
    chain = [PlanCacheInterceptor(cache)] if cache is not None else []
    chain += [FeedbackHarvestInterceptor(), ReoptimizationInterceptor(policy, adaptive=False)]
    return QueryPipeline(db, chain).run(sql)


# -- run once ---------------------------------------------------------------


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
@pytest.mark.parametrize(
    "knobs",
    [{}, {"trigger_site": "highest"}, {"min_query_seconds": 1e-6}],
    ids=["lowest", "highest", "cutoff"],
)
def test_no_plan_node_runs_twice_and_the_trigger_is_not_re_executed(
    stock_db_factory, engine, knobs
):
    db = stock_db_factory()
    db.executor = db.executor_for(engine)
    ops, rounds = instrument(db)
    ctx = rewrite_loop(db, THREE_WAY_SQL, ReoptimizationPolicy(threshold=4, **knobs))

    report = ctx.report
    assert report.reoptimized
    assert len(rounds) == len(report.steps) + 1
    ran = Counter()
    rows = 0
    for plan, staged in rounds:
        nodes = {node.node_id: node for node in plan.walk()}
        assert set(staged.node_metrics) <= set(nodes)
        for node_id, metric in staged.node_metrics.items():
            rows += metric.actual_rows
            if isinstance(nodes[node_id], ScanNode):
                ran["scan"] += 1
            elif isinstance(nodes[node_id], JoinNode):
                ran["join"] += 1
    # One operator call per node that ran, in any round, and none outside a
    # round: the temp table was filled from the round's own trigger result.
    assert ops.calls == ran
    assert report.rows_processed == rows

    plain = stock_db_factory()
    plain.executor = plain.executor_for(engine)
    assert ctx.rows == plain.run(THREE_WAY_SQL).rows


def test_a_paused_round_runs_only_the_joins_up_to_the_trigger(stock_db):
    ops, rounds = instrument(stock_db)
    rewrite_loop(stock_db, THREE_WAY_SQL, ReoptimizationPolicy(threshold=4))

    plan, first = rounds[0]
    joins = plan.join_nodes()
    assert first.trigger is joins[0]
    assert first.result is first.trigger_result
    assert first.total_work == first.trigger_work
    # The join above the trigger never ran, so it carries no actuals.
    assert joins[-1].node_id not in first.node_metrics
    assert joins[-1].actual_rows is None and joins[-1].actual_work is None


def test_adaptive_loop_also_runs_every_node_once(stock_db):
    ops, rounds = instrument(stock_db)
    with repro.connect(
        stock_db, policy=ReoptimizationPolicy(threshold=4), adaptive=True
    ) as conn:
        ctx = conn.execute(THREE_WAY_SQL).context
    assert ctx.reoptimized
    ran = sum(
        1
        for plan, staged in rounds
        for node in plan.walk()
        if node.node_id in staged.node_metrics and isinstance(node, (ScanNode, JoinNode))
    )
    assert sum(ops.calls.values()) == ran
    assert ctx.rows_processed == sum(
        metric.actual_rows for _, staged in rounds for metric in staged.node_metrics.values()
    )


# -- memo lifetime ----------------------------------------------------------


def test_results_leave_the_memo_once_their_parent_consumed_them(stock_db, monkeypatch):
    from repro.executor import executor as executor_module

    memos = []

    class RecordingMemo(executor_module._StageMemo):
        def __init__(self):
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(executor_module, "_StageMemo", RecordingMemo)
    planned = stock_db.plan(THREE_WAY_SQL)
    root = planned.plan

    # No join violates: the round finishes and only the root's rows are left.
    staged = stock_db.executor.execute_staged(root, lambda join, rows: False)
    assert staged.trigger is None and staged.trigger_result is None
    assert set(memos[-1].results) == {root.node_id}

    # Paused at the first join: its rows await the handover, its inputs are gone.
    first = root.join_nodes()[0]
    staged = stock_db.executor.execute_staged(root, lambda join, rows: True)
    assert staged.trigger is first
    assert set(memos[-1].results) == {first.node_id}

    # Finishing with the last violator pinned: the earlier candidate is
    # released as soon as the pin moves on and its parent has consumed it.
    last = root.join_nodes()[-1]
    staged = stock_db.executor.execute_staged(
        root, lambda join, rows: True, finish=True, last=True
    )
    assert staged.trigger is last
    assert staged.trigger_result is not staged.result
    assert set(memos[-1].results) == {root.node_id, last.node_id}
    assert staged.rows_processed == sum(
        node.actual_rows for node in root.walk()
    )


def test_nothing_of_a_round_outlives_the_statement(stock_db):
    ctx = rewrite_loop(stock_db, THREE_WAY_SQL, ReoptimizationPolicy(threshold=4))
    final = ctx.report.final_execution
    assert final is ctx.execution
    assert final.trigger is None and final.trigger_result is None
    # The cutoff discards a pinned candidate too.
    policy = ReoptimizationPolicy(threshold=4, min_query_seconds=1e9)
    ctx = rewrite_loop(stock_db, THREE_WAY_SQL, policy)
    assert not ctx.reoptimized
    assert ctx.execution.trigger is None and ctx.execution.trigger_result is None


# -- stale actuals on cached plans -------------------------------------------


def test_a_round_cut_short_leaves_no_stale_actuals_on_a_cached_plan(stock_db_factory):
    db = stock_db_factory()
    cache = PlanCache(8)
    # Executed fully under a threshold nothing violates, and cached.
    full = rewrite_loop(db, THREE_WAY_SQL, ReoptimizationPolicy(threshold=1e9), cache)
    cached_plan = full.planned.plan
    assert all(node.actual_rows is not None for node in cached_plan.walk())
    top = cached_plan.join_nodes()[-1]
    stale_rows = top.actual_rows

    # The same plan, from the cache, cut short at its first join.
    cut = rewrite_loop(db, THREE_WAY_SQL, ReoptimizationPolicy(threshold=4), cache)
    assert cut.plan_cached and cut.reoptimized
    trigger_aliases = frozenset(cut.report.steps[0].trigger_aliases)
    for node in cached_plan.walk():
        if node.aliases <= trigger_aliases:
            assert node.actual_rows is not None
        else:
            assert node.actual_rows is None and node.actual_work is None
    assert stale_rows is not None
    assert "actual_rows" not in explain_plan(cached_plan).split("\n")[0]
    # EXPLAIN ANALYZE of the statement shows the final plan with this run's rows.
    text = explain_plan(cut.planned.plan, cut.execution)
    assert all("actual_rows=" in line for line in text.split("\n") if "est_rows" in line)

    # The feedback harvest saw exactly what the same two statements record
    # when each plans afresh.
    fresh_db = stock_db_factory()
    rewrite_loop(fresh_db, THREE_WAY_SQL, ReoptimizationPolicy(threshold=1e9))
    fresh = rewrite_loop(fresh_db, THREE_WAY_SQL, ReoptimizationPolicy(threshold=4))
    assert fresh.reoptimized and not fresh.plan_cached and cut.rows == fresh.rows
    bound, fresh_bound = db.parse(THREE_WAY_SQL), fresh_db.parse(THREE_WAY_SQL)
    for subset in (["c"], ["t"], ["u"], ["c", "t"], ["c", "u"], ["t", "u"], ["c", "t", "u"]):
        subset = frozenset(subset)
        assert db.feedback.lookup(bound, subset) == fresh_db.feedback.lookup(
            fresh_bound, subset
        ), sorted(subset)
    assert db.feedback.lookup(bound, trigger_aliases) == cut.report.steps[0].actual_rows


def _reset_by_another_session(cls):
    """``cls`` whose ``actual_work`` another session resets right after each write.

    A cached plan's nodes are shared: a concurrent round's
    ``execute_staged`` sets every node's ``actual_work`` back to ``None``
    when it starts, which can land between this round's write of the field
    and its next read.
    """

    def __setattr__(self, name, value):
        cls.__setattr__(self, name, value)
        if name == "actual_work" and value is not None:
            cls.__setattr__(self, name, None)

    return type(f"Shared{cls.__name__}", (cls,), {"__setattr__": __setattr__})


def test_a_concurrent_reset_of_a_shared_plan_node_leaves_the_round_intact(stock_db):
    from repro.core.interceptor import InMemoryHandover

    planned = stock_db.plan(THREE_WAY_SQL)
    expected = stock_db.executor.execute_staged(planned.plan, lambda join, rows: False)
    for node in planned.plan.walk():
        node.__class__ = _reset_by_another_session(type(node))
    staged = stock_db.executor.execute_staged(planned.plan, lambda join, rows: False)
    assert all(node.actual_work is None for node in planned.plan.walk())
    assert [m.own_work for m in staged.node_metrics.values()] == [
        m.own_work for m in expected.node_metrics.values()
    ]
    assert InMemoryHandover.round_work(planned, staged) == pytest.approx(staged.total_work)


def test_explain_of_a_round_reads_its_metrics_not_the_shared_nodes(stock_db):
    from repro.executor.explain import estimation_errors

    planned = stock_db.plan(THREE_WAY_SQL)
    executor = stock_db.executor
    cut = executor.execute_staged(planned.plan, lambda join, rows: True)
    # Another session then runs the same cached plan to the end, over more
    # rows (a load moves no epoch, so the plan stays cached).
    stock_db.load_rows("trades", [(5000 + i, 1, 10, "NYSE") for i in range(5)])
    full = executor.execute_staged(planned.plan, lambda join, rows: False)
    assert all(node.actual_rows is not None for node in planned.plan.walk())
    lines = explain_plan(planned.plan, cut).split("\n")
    ran = [line for line in lines if "actual_rows=" in line]
    assert len(ran) == len(cut.node_metrics) < len(full.node_metrics)
    # The cut round ran its first join only; the node holds full's rows.
    first = planned.plan.join_nodes()[0]
    assert cut.node_metrics[first.node_id].actual_rows != first.actual_rows
    (error,) = estimation_errors(planned.plan, cut)
    assert f"actual={cut.node_metrics[first.node_id].actual_rows} " in error
    assert len(estimation_errors(planned.plan, full)) == len(planned.plan.join_nodes())


# -- temp tables and the catalog epoch ---------------------------------------


def test_rewrite_loop_temp_tables_leave_the_epoch_and_other_plans_alone(stock_db):
    other_sql = "SELECT count(c.id) AS n FROM company AS c WHERE c.sector = 'tech'"
    with repro.connect(stock_db, policy=ReoptimizationPolicy(threshold=4)) as conn:
        conn.execute(other_sql)
        epoch = stock_db.catalog.epoch
        tables = set(stock_db.catalog)
        skewed = conn.execute(SKEWED_SQL)
        assert skewed.context.reoptimized
        assert stock_db.catalog.epoch == epoch
        assert set(stock_db.catalog) == tables
        assert conn.execute(other_sql).context.plan_cached
        assert conn.execute(SKEWED_SQL).context.plan_cached
        assert conn.cache_stats.stale_evictions == 0


def test_a_kept_temp_table_is_real_ddl_and_its_drop_invalidates_plans(stock_db):
    pipeline = QueryPipeline(
        stock_db,
        [
            ReoptimizationInterceptor(
                ReoptimizationPolicy(threshold=4), keep_temp_tables=True, adaptive=False
            )
        ],
    )
    epoch = stock_db.catalog.epoch
    report = pipeline.run(SKEWED_SQL).report
    kept = report.steps[0].temp_table
    assert stock_db.catalog.epoch > epoch
    assert not stock_db.catalog.entry(kept).transient
    assert kept in stock_db.snapshot().catalog

    cache = PlanCache(8)
    cached = QueryPipeline(stock_db, [PlanCacheInterceptor(cache)])
    reader = f"SELECT count(*) AS n FROM {kept} AS k"
    assert cached.run(reader).rows == [(report.steps[0].temp_rows,)]
    assert cached.run(reader).plan_cached
    stock_db.drop_table(kept)
    with pytest.raises(repro.ReproError):
        cached.run(reader)


def test_transient_temp_tables_are_analyzed_like_kept_ones(stock_db_factory):
    kept_db, loop_db = stock_db_factory(), stock_db_factory()
    policy = ReoptimizationPolicy(threshold=4)
    kept = QueryPipeline(
        kept_db, [ReoptimizationInterceptor(policy, keep_temp_tables=True, adaptive=False)]
    ).run(SKEWED_SQL).report
    dropped = rewrite_loop(loop_db, SKEWED_SQL, policy).report
    assert policy.analyze_temp_tables
    assert kept_db.catalog.stats(kept.steps[0].temp_table) is not None
    assert kept.total_execution_work == dropped.total_execution_work
    assert kept.total_planning_work == dropped.total_planning_work
    assert kept.rewritten_sql() == dropped.rewritten_sql()
