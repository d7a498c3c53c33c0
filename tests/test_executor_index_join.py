"""Index nested-loop joins: the index path against the oracle's hash join.

For :data:`JoinAlgorithm.INDEX_NESTED_LOOP` the vectorized engine looks the
outer keys up in the inner table's hash index and keeps the fetched rows its
inner scan kept; the reference engine hash-joins the two inputs and counts
the index matches on its own.  Every case here forces an index nested loop
onto a two-table plan and requires the engines to agree on the rows *in
order*, the charged work, ``build_rows``/``probe_rows`` and the charged
match count — over plain, sharded, compressed and snapshot inners.
"""

from __future__ import annotations

import pytest

from repro.catalog.schema import ColumnType, PartitionSpec, make_schema
from repro.engine import Database
from repro.executor import ExecutionEngine
from repro.executor import operators, reference
from repro.optimizer.plan import JoinAlgorithm, JoinNode, ScanNode

LAYOUTS = ("plain", "sharded", "compressed", "sharded-compressed", "snapshot")


def _dim_rows():
    return [(i, None if i % 5 == 0 else i % 3, "abc"[i % 3]) for i in range(1, 13)]


def _fact_rows(first=1, count=40):
    # Repeated and NULL foreign keys, keys without a dimension row (13, 14)
    # and NULL group values, so every key shape reaches the join.
    rows = []
    for i in range(first, first + count):
        dim_id = None if i % 7 == 0 else (i * 5) % 14 + 1
        grp = None if i % 11 == 0 else i % 3
        rows.append((i, dim_id, grp, i % 9))
    return rows


def build(layout):
    """``dims`` (12 rows, PK) and ``facts`` (40 rows, FK to dims) in ``layout``."""
    sharded = layout.startswith("sharded")
    db = Database()
    db.create_table(
        make_schema(
            "dims",
            [("id", ColumnType.INT), ("grp", ColumnType.INT), ("tag", ColumnType.TEXT)],
            primary_key="id",
            partition_by=(
                PartitionSpec(method="range", column="id", bounds=(4, 9))
                if sharded
                else None
            ),
        )
    )
    db.create_table(
        make_schema(
            "facts",
            [
                ("id", ColumnType.INT),
                ("dim_id", ColumnType.INT),
                ("grp", ColumnType.INT),
                ("v", ColumnType.INT),
            ],
            primary_key="id",
            foreign_keys=[("dim_id", "dims", "id")],
            partition_by=(
                PartitionSpec(method="hash", column="dim_id", partitions=3)
                if sharded
                else None
            ),
        )
    )
    db.load_rows("dims", _dim_rows())
    db.load_rows("facts", _fact_rows())
    db.finalize_load()
    if layout.endswith("compressed"):
        db.catalog.table("dims").compress()
        db.catalog.table("facts").compress()
    return db


#: (label, SQL, inner alias).  ``d`` is probed through the primary key,
#: ``f`` through the foreign key (repeated row ids per key).
CASES = [
    (
        "fk-inner-unfiltered",
        "SELECT d.id, d.tag, f.id, f.v FROM dims AS d, facts AS f "
        "WHERE d.id = f.dim_id AND d.grp = 1",
        "f",
    ),
    (
        "fk-inner-filtered",
        "SELECT d.id, f.id, f.v FROM dims AS d, facts AS f "
        "WHERE d.id = f.dim_id AND d.grp < 2 AND f.v > 3",
        "f",
    ),
    (
        "pk-inner-outer-larger",
        "SELECT f.id, f.dim_id, d.tag FROM dims AS d, facts AS f "
        "WHERE d.id = f.dim_id",
        "d",
    ),
    (
        "pk-inner-filtered-outer-larger",
        "SELECT f.id, d.id, d.tag FROM dims AS d, facts AS f "
        "WHERE d.id = f.dim_id AND d.tag <> 'a' AND f.v < 7",
        "d",
    ),
    (
        "index-scan-inner",
        "SELECT f.id, d.id FROM dims AS d, facts AS f "
        "WHERE d.id = f.dim_id AND d.id IN (2, 3, 5, 8, 13)",
        "d",
    ),
    (
        "two-predicates-fk-inner",
        "SELECT d.id, f.id FROM dims AS d, facts AS f "
        "WHERE d.id = f.dim_id AND d.grp = f.grp AND d.id < 10",
        "f",
    ),
    (
        "two-predicates-pk-inner",
        "SELECT f.id, d.id, d.grp FROM dims AS d, facts AS f "
        "WHERE f.grp = d.grp AND f.dim_id = d.id",
        "d",
    ),
    (
        "aggregate-over-join",
        "SELECT count(*) AS n, min(d.tag) AS t, sum(f.v) AS s FROM dims AS d, "
        "facts AS f WHERE d.id = f.dim_id AND f.v <> 4",
        "f",
    ),
]


def force_index_join(planned, inner_alias):
    """Replace the plan's one join by an index nested loop into ``inner_alias``."""
    root = planned.plan
    parent = root
    while not isinstance(parent.child, JoinNode):
        parent = parent.child
    join = parent.child
    scans = {scan.alias: scan for scan in (join.left, join.right)}
    assert all(isinstance(scan, ScanNode) for scan in scans.values())
    inner = scans.pop(inner_alias)
    (outer,) = scans.values()
    forced = JoinNode(
        left=outer,
        right=inner,
        join_predicates=join.join_predicates,
        algorithm=JoinAlgorithm.INDEX_NESTED_LOOP,
        residual_filters=join.residual_filters,
    )
    parent.child = forced
    return root, forced


class RecordingOperators:
    """An operator set recording what each index join returned."""

    def __init__(self, base) -> None:
        self._base = base
        self.index_joins = []

    def __getattr__(self, name):
        return getattr(self._base, name)

    def index_join_results(self, *args, **kwargs):
        joined, matches = self._base.index_join_results(*args, **kwargs)
        self.index_joins.append((len(joined), matches))
        return joined, matches


def run(db, plan, engine):
    executor = db.executor_for(engine)
    executor._ops = ops = RecordingOperators(executor._ops)
    return executor.execute(plan), ops.index_joins


def assert_engines_agree(db, plan, join):
    vectorized, v_joins = run(db, plan, ExecutionEngine.VECTORIZED)
    oracle, o_joins = run(db, plan, ExecutionEngine.REFERENCE)
    assert len(v_joins) == 1
    assert v_joins == o_joins  # output rows and charged matches
    assert list(vectorized.result.rows) == oracle.result.rows
    assert vectorized.total_work == oracle.total_work
    for node_id, metric in vectorized.node_metrics.items():
        other = oracle.node_metrics[node_id]
        assert (metric.actual_rows, metric.work) == (other.actual_rows, other.work)
        assert (metric.build_rows, metric.probe_rows) == (
            other.build_rows,
            other.probe_rows,
        )
    assert vectorized.node_metrics[join.node_id].label.startswith("Index Nested Loop")
    return vectorized, v_joins[0][1]


@pytest.fixture(scope="module", params=LAYOUTS)
def layout_db(request):
    return request.param, build(request.param)


@pytest.mark.parametrize("label,sql,inner_alias", CASES, ids=[c[0] for c in CASES])
def test_index_join_agrees_with_the_oracle(layout_db, label, sql, inner_alias):
    layout, db = layout_db
    target = db
    if layout == "snapshot":
        # The pinned view must not see rows loaded after it, through its
        # scans or through the (rebuilt) indexes of the live tables.
        target = db.snapshot()
        before, _ = assert_engines_agree(target, *force_index_join(target.plan(sql), inner_alias))
        db.load_rows("dims", [(i, i % 3, "z") for i in range(13, 16)])
        db.load_rows("facts", _fact_rows(first=41, count=30))
        after, _ = assert_engines_agree(target, *force_index_join(target.plan(sql), inner_alias))
        assert list(after.result.rows) == list(before.result.rows)
        return
    plan, join = force_index_join(target.plan(sql), inner_alias)
    execution, matches = assert_engines_agree(target, plan, join)
    assert execution.result.rows, f"{label}: the case should produce rows"
    assert matches >= execution.node_metrics[join.node_id].actual_rows


@pytest.mark.parametrize("layout", ["plain", "sharded-compressed"])
@pytest.mark.parametrize("label,sql,inner_alias", CASES, ids=[c[0] for c in CASES])
def test_index_join_rows_and_order_equal_the_hash_join(layout, label, sql, inner_alias):
    """Through the index or hashing the inner, one engine yields one row order."""
    db = build(layout)
    plan, join = force_index_join(db.plan(sql), inner_alias)
    indexed = db.executor.execute(plan)
    join.algorithm = JoinAlgorithm.HASH_JOIN
    hashed = db.executor.execute(plan)
    assert list(indexed.result.rows) == list(hashed.result.rows)
    assert (
        indexed.node_metrics[join.node_id].build_rows,
        indexed.node_metrics[join.node_id].probe_rows,
    ) == (
        hashed.node_metrics[join.node_id].build_rows,
        hashed.node_metrics[join.node_id].probe_rows,
    )


def test_charged_matches_count_index_rows_before_the_inner_filters():
    """Each outer row pays for every row its key fetches, filtered or not."""
    db = build("plain")
    catalog = db.catalog
    dims, _ = operators.scan_table(catalog, "d", "dims", [])
    facts, _ = operators.scan_table(catalog, "f", "facts", [])
    planned = db.plan(
        "SELECT d.id, f.id FROM dims AS d, facts AS f WHERE d.id = f.dim_id AND f.v > 100"
    )
    (join,) = planned.plan.join_nodes()
    predicates = list(join.join_predicates)
    fk_rows = [row[1] for row in _fact_rows()]
    expected = sum(fk_rows.count(i) for i in range(1, 13))
    for ops in (operators, reference):
        _, matches = ops.index_join_results(dims, facts, predicates, catalog, "facts")
        assert matches == expected
    # Outer keys NULL or absent from the index fetch nothing.
    _, matches = operators.index_join_results(facts, dims, predicates, catalog, "dims")
    assert matches == sum(1 for key in fk_rows if key is not None and key <= 12)


def test_a_join_probing_its_second_predicate_is_charged_for_what_it_fetches():
    """The probed predicate is the first indexed one, not the first listed.

    ``dims.grp`` has no index, so the join probes ``dims.id`` through the
    second predicate and pays for every dimension row those lookups fetch,
    though fewer of them also match on ``grp``.
    """
    db = build("plain")
    (sql,) = [case[1] for case in CASES if case[0] == "two-predicates-pk-inner"]
    plan, join = force_index_join(db.plan(sql), "d")
    assert [p.column_for("d") for p in join.join_predicates] == ["grp", "id"]
    assert "grp" not in db.catalog.indexes("dims")
    execution = db.executor.execute(plan)
    fetched = sum(1 for row in _fact_rows() if row[1] is not None and row[1] <= 12)
    metric = execution.node_metrics[join.node_id]
    assert metric.actual_rows < fetched
    expected = db.cost_model.index_nested_loop_cost(len(_fact_rows()), fetched, 0)
    assert metric.own_work == pytest.approx(expected)
