"""Differential test: the bitmask planner against the frozenset one it replaced.

The join enumerator and cardinality estimator plan over integer alias masks
and walk only connected subsets.  ``ReferenceEnumerator`` and
``ReferenceEstimator`` below are frozen copies of the ``frozenset`` versions
they replaced (every subset of ``combinations(aliases, size)`` probed against
the DP table, string-set BFS connectivity), kept as the oracle.  Over seeded
random join graphs — chain, star, cycle, clique and random shapes, self-joins,
2- and 3-alias residual filters, 1 to 17 tables — in the bushy, linear and
greedy regimes, under each estimation source (a caller's injector or the
optimizer's estimator source), both must produce the same EXPLAIN text,
``candidates_considered``, ``estimate_calls`` and ``estimates_by_size``, and
ask the injector about the same subsets *in the same order*
(``FeedbackStore.lookup`` moves hits to the LRU end, so the order is
behaviour).
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.catalog import ColumnType, make_schema
from repro.core.oracle import TrueCardinalityOracle
from repro.engine import Database
from repro.errors import CardinalityError, PlanningError
from repro.executor.explain import explain_plan
from repro.optimizer import (
    CardinalityEstimator,
    CardinalityInjector,
    DictInjection,
    JoinEnumerator,
    Optimizer,
    PlannerConfig,
)
from repro.optimizer.cardinality import MIN_ROWS
from repro.optimizer.estimators import FeedbackEstimator, UpperBoundEstimator
from repro.optimizer.feedback import FeedbackStore
from repro.optimizer.plan import JoinAlgorithm, PlanNode, ScanNode

TABLES = ("r0", "r1", "r2", "r3")
COLUMNS = ("id", "a", "b")

# -- the frozenset planner, frozen ------------------------------------------


class _ReferenceGraph:
    """String-set join graph (adjacency sets, BFS connectivity)."""

    def __init__(self, query) -> None:
        self.query = query
        self._adjacency: Dict[str, Set[str]] = {alias: set() for alias in query.aliases}
        for join in query.joins:
            self._adjacency[join.left_alias].add(join.right_alias)
            self._adjacency[join.right_alias].add(join.left_alias)
        for residual in query.residuals:
            aliases = [a for a in residual.referenced_aliases() if a in self._adjacency]
            for i, left in enumerate(aliases):
                for right in aliases[i + 1 :]:
                    self._adjacency[left].add(right)
                    self._adjacency[right].add(left)

    def joins_between_sets(self, left, right):
        left, right = set(left), set(right)
        return [
            join
            for join in self.query.joins
            if (join.left_alias in left and join.right_alias in right)
            or (join.left_alias in right and join.right_alias in left)
        ]

    def is_connected(self, aliases) -> bool:
        alias_set = set(aliases)
        if not alias_set:
            return False
        start = next(iter(alias_set))
        seen = {start}
        frontier = [start]
        while frontier:
            for neighbor in self._adjacency[frontier.pop()]:
                if neighbor in alias_set and neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen == alias_set

    def connects(self, left, right) -> bool:
        right = set(right)
        return any(not self._adjacency[alias].isdisjoint(right) for alias in left)


class ReferenceEstimator(CardinalityEstimator):
    """The ``frozenset``-keyed estimator (recursion through string sets)."""

    def __init__(self, catalog, query, injector=None) -> None:
        super().__init__(catalog, query, graph=_ReferenceGraph(query), injector=injector)

    def subset_cardinality(self, subset) -> float:
        if not subset:
            raise CardinalityError("cannot estimate the empty alias set")
        subset = frozenset(subset)
        if subset in self._memo:
            return self._memo[subset]
        self.estimate_calls += 1
        self.estimates_by_size[len(subset)] += 1
        injected = None if self.injector is None else self.injector.lookup(self.query, subset)
        if injected is not None:
            rows = max(MIN_ROWS, float(injected))
        elif len(subset) == 1:
            rows = self._estimate_scan(next(iter(subset)))
        else:
            rows = self._estimate_join(subset)
        self._memo[subset] = rows
        return rows

    def _estimate_join(self, subset) -> float:
        removable = self._pick_removable(subset)
        remainder = subset - {removable}
        joins = self.graph.joins_between_sets(remainder, {removable})
        left_rows = self.subset_cardinality(remainder)
        right_rows = self.subset_cardinality(frozenset((removable,)))
        residuals = [
            residual
            for residual in self.query.residuals
            if removable in residual.referenced_aliases()
            and set(residual.referenced_aliases()) <= subset
        ]
        selectivity = self.residual_selectivity(residuals) if residuals else 1.0
        if not joins and not residuals:
            return max(MIN_ROWS, left_rows * right_rows)
        if joins:
            selectivity *= self.join_selectivity(joins)
        return max(MIN_ROWS, left_rows * right_rows * selectivity)

    def _pick_removable(self, subset) -> str:
        ordered = sorted(subset)
        for alias in reversed(ordered):
            remainder = subset - {alias}
            if self.graph.is_connected(remainder) and self.graph.connects(
                remainder, {alias}
            ):
                return alias
        return ordered[-1]


class ReferenceEnumerator(JoinEnumerator):
    """The ``frozenset`` dynamic program and greedy ordering."""

    def __init__(self, catalog, query, estimator, cost_model, config) -> None:
        self._catalog = catalog
        self.query = query
        self.estimator = estimator
        self.cost_model = cost_model
        self.config = config
        self.graph = estimator.graph
        self.candidates_considered = 0
        self._best: Dict[frozenset, PlanNode] = {}

    def plan(self) -> PlanNode:
        if not self.query.aliases:
            raise PlanningError("query has no FROM-clause tables")
        if not self.graph.is_connected(self.query.aliases):
            raise PlanningError("query join graph is disconnected")
        for alias in self.query.aliases:
            self._best[frozenset((alias,))] = self._best_scan(alias)
        num_tables = len(self.query.aliases)
        if num_tables == 1:
            best = self._best[frozenset(self.query.aliases)]
        elif num_tables <= self.config.dp_limit:
            best = self._dynamic_programming(bushy=num_tables <= self.config.bushy_limit)
        else:
            best = self._greedy_operator_ordering()
        return self._finalize(best)

    def _bridges_residual(self, left, right) -> bool:
        for residual in self.query.residuals:
            aliases = set(residual.referenced_aliases())
            if aliases & left.aliases and aliases & right.aliases:
                return True
        return False

    def _residuals_for(self, left, right):
        union = left.aliases | right.aliases
        residuals = []
        for residual in self.query.residuals:
            aliases = set(residual.referenced_aliases())
            if (
                aliases <= union
                and not aliases <= left.aliases
                and not aliases <= right.aliases
            ):
                residuals.append(residual)
        return tuple(residuals)

    def _cheapest_join(self, left, right, output_rows, best=None):
        joins = tuple(self.graph.joins_between_sets(left.aliases, right.aliases))
        residuals = self._residuals_for(left, right)
        if not joins and not residuals and not self._bridges_residual(left, right):
            return best
        best_cost = best[0] if best is not None else None
        model = self.cost_model
        for outer, inner in ((left, right), (right, left)):
            outer_rows = outer.estimated_rows
            inner_rows = inner.estimated_rows
            base_cost = outer.estimated_cost + inner.estimated_cost
            nested_loop = (
                JoinAlgorithm.NESTED_LOOP,
                base_cost + model.nested_loop_cost(outer_rows, inner_rows, output_rows),
            )
            if not joins:
                costed = [nested_loop]
            else:
                costed = [
                    (
                        JoinAlgorithm.HASH_JOIN,
                        base_cost + model.hash_join_cost(outer_rows, inner_rows, output_rows),
                    ),
                    nested_loop,
                    (
                        JoinAlgorithm.MERGE_JOIN,
                        base_cost + model.merge_join_cost(outer_rows, inner_rows, output_rows),
                    ),
                ]
                if self._index_nested_loop_column(inner, joins) is not None:
                    costed.append(
                        (
                            JoinAlgorithm.INDEX_NESTED_LOOP,
                            outer.estimated_cost
                            + model.index_nested_loop_cost(
                                outer_rows,
                                output_rows,
                                len(inner.filters) if isinstance(inner, ScanNode) else 0,
                            ),
                        )
                    )
            self.candidates_considered += len(costed)
            for algorithm, cost in costed:
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best = (cost, outer, inner, algorithm, joins, residuals)
        return best

    def _index_nested_loop_column(self, inner, joins):
        if not isinstance(inner, ScanNode):
            return None
        indexes = self._catalog.indexes(inner.table)
        for join in joins:
            if join.touches(inner.alias):
                column_name = join.column_for(inner.alias)
                if column_name in indexes:
                    return column_name
        return None

    def _dynamic_programming(self, bushy: bool) -> PlanNode:
        aliases = list(self.query.aliases)
        for size in range(2, len(aliases) + 1):
            for combo in combinations(aliases, size):
                subset = frozenset(combo)
                splits = self._splits(subset, bushy)
                if not splits:
                    continue
                output_rows = self.estimator.subset_cardinality(subset)
                best = None
                for left_set, right_set in splits:
                    best = self._cheapest_join(
                        self._best[left_set], self._best[right_set], output_rows, best
                    )
                if best is not None:
                    self._best[subset] = self._make_join(best, output_rows)
        return self._best[frozenset(aliases)]

    def _splits(self, subset, bushy):
        planned = self._best
        splits = []
        if bushy and len(subset) > 2:
            members = sorted(subset)
            anchor = members[0]
            others = members[1:]
            for r in range(0, len(others)):
                for combo in combinations(others, r):
                    left = frozenset((anchor,) + combo)
                    if left not in planned:
                        continue
                    right = subset - left
                    if right not in planned:
                        continue
                    if not self.graph.connects(left, right):
                        continue
                    splits.append((left, right))
        else:
            for alias in sorted(subset):
                rest = subset - {alias}
                if rest not in planned:
                    continue
                if not self.graph.connects(rest, {alias}):
                    continue
                splits.append((rest, frozenset((alias,))))
        return splits

    def _greedy_operator_ordering(self) -> PlanNode:
        components = {
            frozenset((alias,)): self._best[frozenset((alias,))]
            for alias in self.query.aliases
        }
        while len(components) > 1:
            best_pair = None
            best_choice = None
            best_rows = float("inf")
            keys = sorted(components, key=lambda s: tuple(sorted(s)))
            for left_set, right_set in combinations(keys, 2):
                if not self.graph.connects(left_set, right_set):
                    continue
                union = left_set | right_set
                output_rows = self.estimator.subset_cardinality(union)
                cheapest = self._cheapest_join(
                    components[left_set], components[right_set], output_rows
                )
                if cheapest is None:
                    continue
                if output_rows < best_rows or (
                    output_rows == best_rows
                    and best_choice is not None
                    and cheapest[0] < best_choice[0]
                ):
                    best_rows = output_rows
                    best_pair = (left_set, right_set)
                    best_choice = cheapest
            left_set, right_set = best_pair
            del components[left_set]
            del components[right_set]
            components[left_set | right_set] = self._make_join(best_choice, best_rows)
        return next(iter(components.values()))


# -- recording estimation sources --------------------------------------------


class RecordingInjector(CardinalityInjector):
    def __init__(self, inner: CardinalityInjector, calls: List[frozenset]) -> None:
        self.inner = inner
        self.calls = calls

    def lookup(self, query, subset):
        self.calls.append(("injector", frozenset(subset)))
        return self.inner.lookup(query, subset)


def _recording(inner: Optional[CardinalityInjector], calls: List):
    return None if inner is None else RecordingInjector(inner, calls)


# -- random join graphs --------------------------------------------------------


@pytest.fixture(scope="module")
def db() -> Database:
    rng = random.Random(3)
    database = Database()
    for index, name in enumerate(TABLES):
        database.create_table(
            make_schema(name, [(c, ColumnType.INT) for c in COLUMNS], primary_key="id")
        )
        rows = 12 + 9 * index
        database.load_rows(
            name,
            [
                (i, rng.choice((1, 1, 2, 3, i % 7)), rng.randint(0, 20))
                for i in range(rows)
            ],
        )
    database.finalize_load()
    database.create_index("r1", "a")
    database.create_index("r3", "b")
    return database


SHAPES = ("chain", "star", "cycle", "clique", "random", "self_join", "residuals")


def _edges(shape: str, n: int, rng: random.Random) -> List[Tuple[int, int]]:
    if n < 2:
        return []
    if shape == "star":
        return [(0, i) for i in range(1, n)]
    if shape == "cycle":
        return [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if n > 2 else [])
    if shape == "clique":
        return list(combinations(range(n), 2))
    if shape in ("random", "residuals"):
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        extra = [pair for pair in combinations(range(n), 2) if pair not in edges]
        return edges + rng.sample(extra, min(len(extra), rng.randint(0, n)))
    return [(i, i + 1) for i in range(n - 1)]  # chain, self_join


def random_query(db: Database, shape: str, n: int, seed: int):
    rng = random.Random(seed)
    aliases = [f"{chr(ord('a') + rng.randrange(26))}{i}" for i in range(n)]
    rng.shuffle(aliases)  # FROM order differs from sorted order
    tables = []
    filters = []
    for alias in aliases:
        table = "r2" if shape == "self_join" else rng.choice(TABLES)
        tables.append(f"{table} AS {alias}")
        if rng.random() < 0.4:
            op = rng.choice(("<", "="))
            filters.append(f"{alias}.{rng.choice(COLUMNS)} {op} {rng.randint(0, 10)}")
    edges = _edges(shape, n, rng)
    residuals = []
    if shape == "residuals" and len(edges) > 1:
        # One edge becomes a residual-only link (a filtered cross product).
        i, j = edges.pop(rng.randrange(1, len(edges)))
        residuals.append(f"{aliases[i]}.a < {aliases[j]}.b")
    joins = []
    for i, j in edges:
        joins.append(
            f"{aliases[i]}.{rng.choice(COLUMNS)} = {aliases[j]}.{rng.choice(COLUMNS)}"
        )
        if rng.random() < 0.15:
            joins.append(f"{aliases[i]}.b = {aliases[j]}.a")
    if shape == "residuals" and n >= 3:
        x, y, z = rng.sample(aliases, 3)
        residuals.append(f"{x}.a + {y}.b < {z}.id")
    sql = "SELECT count(*) FROM " + ", ".join(tables)
    predicates = filters + joins + residuals
    if predicates:
        sql += " WHERE " + " AND ".join(predicates)
    return db.parse(sql, name=f"{shape}{n}s{seed}")


def _config(regime: str, n: int) -> PlannerConfig:
    return {
        "bushy": PlannerConfig(bushy_limit=n, dp_limit=n),
        "linear": PlannerConfig(bushy_limit=1, dp_limit=n),
        "greedy": PlannerConfig(bushy_limit=1, dp_limit=1),
    }[regime]


def _estimation(kind: str, db: Database, query, seed: int):
    """``(caller's injector, estimator source factory)`` for one estimation
    source; each side gets its own source so a feedback store's LRU state
    starts equal."""
    rng = random.Random(seed)
    if kind == "dict":
        values = {}
        for size in (1, 2, 3):
            for combo in combinations(query.aliases, size):
                if rng.random() < 0.3:
                    values[frozenset(combo)] = rng.choice((0.5, 7.0, 40.0, 900.0))
        return DictInjection(values), lambda: None
    if kind == "perfect":
        return TrueCardinalityOracle(db).perfect_injection(2), lambda: None
    if kind == "upper-bound":
        return None, lambda: UpperBoundEstimator(db.catalog)
    if kind == "feedback":
        learned = [
            (frozenset(combo), rng.choice((3.0, 50.0, 700.0)))
            for size in (1, 2, 3)
            for combo in combinations(query.aliases, size)
            if rng.random() < 0.3
        ]

        def source():
            store = FeedbackStore(capacity=max(1, len(learned) // 2))
            for subset, rows in learned:
                store.record(query, subset, rows)
            return FeedbackEstimator(store)

        return None, source
    return None, lambda: None


def _plan_both(db, query, config, injector, make_source):
    """The reference is handed whichever of ``injector`` and the source is
    set (never both); the optimizer gets the injector per call and the
    source at construction, and chains them itself."""
    reference_calls: List = []
    new_calls: List = []
    reference_source = make_source()
    new_source = make_source()
    estimator = ReferenceEstimator(
        db.catalog,
        query,
        injector=_recording(
            injector if injector is not None else reference_source, reference_calls
        ),
    )
    enumerator = ReferenceEnumerator(db.catalog, query, estimator, db.optimizer.cost_model, config)
    reference = (
        explain_plan(enumerator.plan()),
        enumerator.candidates_considered,
        estimator.estimate_calls,
        list(estimator.estimates_by_size.items()),
        reference_calls,
    )
    optimizer = Optimizer(
        db.catalog, planner_config=config, source=_recording(new_source, new_calls)
    )
    planned = optimizer.plan(query, injector=_recording(injector, new_calls))
    new = (
        explain_plan(planned.plan),
        planned.stats.candidates_considered,
        planned.stats.estimate_calls,
        list(planned.stats.estimates_by_size.items()),
        new_calls,
    )
    return reference, new


ESTIMATION = ("none", "dict", "perfect", "upper-bound", "feedback")
MAX_TABLES = {"bushy": 8, "linear": 11, "greedy": 17}


def _cases():
    cases = []
    index = 0
    for shape in SHAPES:
        for regime in ("bushy", "linear", "greedy"):
            for draw in range(3):
                rng = random.Random(f"{shape}-{regime}-{draw}")
                top = MAX_TABLES[regime] if shape != "clique" else min(MAX_TABLES[regime], 9)
                n = (rng.choice((1, 2, 3)), top, rng.randint(2, top))[draw]
                estimation = ESTIMATION[(index // 2) % len(ESTIMATION)]
                cases.append((shape, regime, n, estimation, 1000 + index))
                index += 1
    return cases


@pytest.mark.parametrize(
    "shape,regime,n,estimation,seed",
    _cases(),
    ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[3]}" for c in _cases()],
)
def test_masks_plan_like_frozensets(db, shape, regime, n, estimation, seed):
    query = random_query(db, shape, n, seed)
    injector, make_source = _estimation(estimation, db, query, seed)
    reference, new = _plan_both(db, query, _config(regime, n), injector, make_source)
    assert new[0] == reference[0]  # EXPLAIN text
    assert new[1:4] == reference[1:4]  # candidates, estimate calls, by size
    assert new[4] == reference[4]  # injector calls, in order


def test_every_case_dimension_is_covered():
    cases = _cases()
    assert {c[0] for c in cases} == set(SHAPES)
    assert {c[3] for c in cases} == set(ESTIMATION)
    assert {c[2] for c in cases} >= {1, 17}
    assert any(
        c[0] == "residuals" and c[2] >= 3 for c in cases
    ), "3-alias residuals need 3+ tables"


def test_greedy_charges_reused_pairs_as_recomputed(db, monkeypatch):
    """The greedy ordering costs each pair once across its rounds but charges
    its candidates every round, like the ordering that recomputed them."""
    query = random_query(db, "clique", 12, 7)
    config = PlannerConfig(bushy_limit=1, dp_limit=1)
    costed = []
    cheapest_join = JoinEnumerator._cheapest_join

    def spy(self, left, right, output_rows, best=None):
        costed.append((left, right))
        return cheapest_join(self, left, right, output_rows, best)

    monkeypatch.setattr(JoinEnumerator, "_cheapest_join", spy)
    planned = Optimizer(db.catalog, planner_config=config).plan(query)
    monkeypatch.undo()
    reference, _ = _plan_both(db, query, config, None, lambda: None)
    assert costed and len(costed) == len(set(costed))
    assert planned.stats.candidates_considered == reference[1]


def test_disconnected_graph_is_rejected_by_both(db):
    query = db.parse("SELECT * FROM r0 AS x, r0 AS y, r0 AS z WHERE x.id = y.a", name="apart")
    estimator = ReferenceEstimator(db.catalog, query)
    with pytest.raises(PlanningError):
        ReferenceEnumerator(
            db.catalog, query, estimator, db.optimizer.cost_model, PlannerConfig()
        ).plan()
    with pytest.raises(PlanningError):
        Optimizer(db.catalog).plan(query)

