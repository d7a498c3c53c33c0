"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.catalog import ColumnType, make_schema
from repro.core import q_error
from repro.engine import Database
from repro.executor import reference
from repro.executor.batch import ColumnBatch
from repro.executor.expressions import (
    ColumnResolver,
    compile_batch_conjunction,
    compile_conjunction,
)
from repro.executor.operators import ResultSet, join_results
from repro.optimizer.plan import JoinAlgorithm, ScanNode
from repro.sql.ast import (
    Between,
    BoolConnective,
    BoolExpr,
    Comparison,
    ComparisonOp,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    column,
)
from repro.sql.binder import BoundJoin
from repro.sql.values import like
from repro.stats import EquiDepthHistogram, MostCommonValues
from repro.workloads import ZipfSampler

positive_rows = st.floats(min_value=0, max_value=1e9, allow_nan=False)


class TestQErrorProperties:
    @given(positive_rows, positive_rows)
    def test_symmetric_and_at_least_one(self, estimated, actual):
        error = q_error(estimated, actual)
        assert error >= 1.0
        assert error == q_error(actual, estimated)

    @given(positive_rows)
    def test_identity(self, value):
        assert q_error(value, value) == 1.0


class TestHistogramProperties:
    @given(st.lists(st.integers(min_value=-10_000, max_value=10_000), min_size=2, max_size=300))
    def test_selectivity_bounded_and_monotone(self, values):
        histogram = EquiDepthHistogram.build(values, num_buckets=16)
        if histogram is None:
            return
        probes = sorted(set(values))[:: max(1, len(set(values)) // 10)]
        previous = 0.0
        for probe in probes:
            fraction = histogram.selectivity_less_than(probe)
            assert 0.0 <= fraction <= 1.0
            assert fraction >= previous - 1e-9
            previous = fraction

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=300))
    def test_full_range_covers_everything(self, values):
        histogram = EquiDepthHistogram.build(values, num_buckets=8)
        if histogram is None:
            return
        assert histogram.selectivity_range() == 1.0


class TestMCVProperties:
    @given(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=400))
    def test_frequencies_are_probabilities(self, values):
        mcv = MostCommonValues.build(values, max_entries=8)
        assert mcv is not None
        assert 0.0 < mcv.total_frequency <= 1.0 + 1e-9
        for value, frequency in zip(mcv.values, mcv.frequencies):
            assert abs(frequency - values.count(value) / len(values)) < 1e-9
        # Frequencies are sorted most-common-first.
        assert list(mcv.frequencies) == sorted(mcv.frequencies, reverse=True)


class TestZipfProperties:
    @given(st.integers(min_value=1, max_value=500), st.floats(min_value=0.1, max_value=2.0))
    def test_probabilities_sum_to_one_and_decrease(self, n, exponent):
        sampler = ZipfSampler(n, exponent)
        probabilities = [sampler.probability(i) for i in range(n)]
        assert abs(sum(probabilities) - 1.0) < 1e-6
        assert all(
            probabilities[i] >= probabilities[i + 1] - 1e-12 for i in range(n - 1)
        )


class TestLikeProperties:
    @given(st.text(alphabet="abc%_", min_size=0, max_size=10), st.text(alphabet="abc", max_size=10))
    def test_like_never_crashes_and_is_boolean(self, pattern, value):
        # Non-NULL operands give a two-valued answer, never NULL.
        assert isinstance(like(value, pattern), bool)

    @given(st.text(alphabet="abcd", max_size=12))
    def test_percent_matches_everything(self, value):
        assert like(value, "%") is True


class TestJoinProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=30)
    @given(
        st.lists(st.integers(min_value=0, max_value=8), max_size=40),
        st.lists(st.integers(min_value=0, max_value=8), max_size=40),
    )
    def test_join_cardinality_matches_key_count_product(self, left_keys, right_keys):
        """|A join B on key| == sum over keys of count_A(k) * count_B(k)."""
        left = ResultSet(
            [("a", "k")], [(key,) for key in left_keys]
        )
        right = ResultSet(
            [("b", "k")], [(key,) for key in right_keys]
        )
        joined = join_results(left, right, [BoundJoin("a", "k", "b", "k")])
        expected = sum(
            left_keys.count(key) * right_keys.count(key) for key in set(left_keys)
        )
        assert len(joined) == expected


_int_or_null = st.one_of(st.none(), st.integers(min_value=-5, max_value=5))
_text_or_null = st.one_of(st.none(), st.text(alphabet="abc", max_size=3))
_random_rows = st.lists(st.tuples(_int_or_null, _text_or_null), max_size=60)

_int_column = column("t", "a")
_text_column = column("t", "b")

_comparison = st.builds(
    lambda op, value: Comparison(op, _int_column, Literal(value)),
    st.sampled_from(list(ComparisonOp)),
    st.integers(min_value=-5, max_value=5),
)
_in = st.builds(
    lambda values, negated: InList(
        _int_column, tuple(Literal(v) for v in values), negated=negated
    ),
    st.lists(st.integers(min_value=-5, max_value=5), max_size=4),
    st.booleans(),
)
_like = st.builds(
    lambda pattern, negated: Like(_text_column, Literal(pattern), negated=negated),
    st.text(alphabet="abc%_", max_size=4),
    st.booleans(),
)
_between = st.builds(
    lambda low, high, negated: Between(
        _int_column, Literal(low), Literal(high), negated=negated
    ),
    st.integers(min_value=-5, max_value=0),
    st.integers(min_value=0, max_value=5),
    st.booleans(),
)
_null = st.builds(
    IsNull, st.sampled_from([_int_column, _text_column]), st.booleans()
)
_simple_predicate = st.one_of(_comparison, _in, _like, _between, _null)
_connective = st.sampled_from([BoolConnective.AND, BoolConnective.OR])
_predicate = st.one_of(
    _simple_predicate,
    st.builds(
        lambda op, operands: BoolExpr(op, tuple(operands)),
        _connective,
        st.lists(_simple_predicate, min_size=2, max_size=3),
    ),
    st.builds(Not, _simple_predicate),
    st.builds(
        lambda op, operands: Not(BoolExpr(op, tuple(operands))),
        _connective,
        st.lists(_simple_predicate, min_size=2, max_size=2),
    ),
)


class TestBatchPredicateProperties:
    """Batch (columnar) predicate evaluation must match per-row evaluation."""

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(_random_rows, st.lists(_predicate, max_size=3))
    def test_batch_conjunction_matches_row_conjunction(self, rows, predicates):
        columns = [("t", "a"), ("t", "b")]
        resolver = ColumnResolver(columns)
        row_predicate = compile_conjunction(predicates, resolver)
        expected = [row for row in rows if row_predicate(row)]

        batch = ColumnBatch.from_rows(columns, rows)
        batch_predicate = compile_batch_conjunction(predicates, resolver)
        if batch_predicate is None:
            survivors = batch
        else:
            survivors = batch.restrict(batch_predicate(batch))
        assert survivors.rows == expected

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(_random_rows, _predicate)
    def test_batch_predicate_survives_prior_selection(self, rows, predicate):
        """Predicates applied to an already-restricted batch stay correct."""
        columns = [("t", "a"), ("t", "b")]
        resolver = ColumnResolver(columns)
        keep_even = [i for i in range(len(rows)) if i % 2 == 0]
        batch = ColumnBatch.from_rows(columns, rows).restrict(keep_even)
        row_predicate = compile_conjunction([predicate], resolver)
        expected = [rows[i] for i in keep_even if row_predicate(rows[i])]
        batch_predicate = compile_batch_conjunction([predicate], resolver)
        assert batch.restrict(batch_predicate(batch)).rows == expected


def _join_sort_key(row):
    return tuple((value is None, value) for value in row)


class TestEngineJoinEquivalence:
    """Vectorized and reference joins agree, including NULL join keys."""

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=40)
    @given(
        st.lists(st.tuples(_int_or_null, _text_or_null), max_size=40),
        st.lists(st.tuples(_int_or_null, _int_or_null), max_size=40),
    )
    def test_vectorized_join_matches_reference(self, left_rows, right_rows):
        columns_left = [("l", "k"), ("l", "payload")]
        columns_right = [("r", "k"), ("r", "extra")]
        join = [BoundJoin("l", "k", "r", "k")]
        vectorized = join_results(
            ColumnBatch.from_rows(columns_left, left_rows),
            ColumnBatch.from_rows(columns_right, right_rows),
            join,
        )
        oracle = reference.join_results(
            ResultSet(columns_left, left_rows),
            ResultSet(columns_right, right_rows),
            join,
        )
        assert sorted(vectorized.rows, key=_join_sort_key) == sorted(
            oracle.rows, key=_join_sort_key
        )


class TestJoinAlgorithmPermutationEquality:
    """All three physical join algorithms produce the same result multiset."""

    @settings(
        suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=10
    )
    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=50)),
            min_size=1,
            max_size=40,
        )
    )
    def test_all_algorithms_permutation_equal(self, trade_rows):
        db = Database()
        db.create_table(
            make_schema(
                "company",
                [("id", ColumnType.INT), ("symbol", ColumnType.TEXT)],
                primary_key="id",
            )
        )
        db.create_table(
            make_schema(
                "trades",
                [("id", ColumnType.INT), ("company_id", ColumnType.INT), ("shares", ColumnType.INT)],
                primary_key="id",
                foreign_keys=[("company_id", "company", "id")],
            )
        )
        db.load_rows("company", [(i, f"S{i}") for i in range(1, 9)])
        db.load_rows(
            "trades",
            [(i + 1, cid, shares) for i, (cid, shares) in enumerate(trade_rows)],
        )
        db.finalize_load()
        planned = db.plan(
            "SELECT c.symbol, t.id FROM company AS c, trades AS t "
            "WHERE c.id = t.company_id"
        )
        join = planned.plan.join_nodes()[0]
        results = {}
        for algorithm in JoinAlgorithm:
            if algorithm is JoinAlgorithm.INDEX_NESTED_LOOP and not isinstance(
                join.right, ScanNode
            ):
                continue
            join.algorithm = algorithm
            execution = db.execute_plan(planned)
            results[algorithm] = sorted(execution.result.rows, key=_join_sort_key)
        assert len(results) >= 3
        baseline = results[JoinAlgorithm.HASH_JOIN]
        for algorithm, rows in results.items():
            assert rows == baseline, f"{algorithm} output differs from hash join"


class TestEngineCountProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=20)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=100)),
            min_size=1,
            max_size=60,
        )
    )
    def test_filtered_count_matches_python(self, rows):
        """COUNT with a filter agrees with a straight Python computation."""
        db = Database()
        db.create_table(
            make_schema("facts", [("id", ColumnType.INT), ("grp", ColumnType.INT), ("val", ColumnType.INT)])
        )
        db.load_rows("facts", [(i + 1, grp, val) for i, (grp, val) in enumerate(rows)])
        db.finalize_load()
        run = db.run("SELECT count(f.id) AS n FROM facts AS f WHERE f.grp = 3")
        expected = sum(1 for grp, _ in rows if grp == 3)
        assert run.rows == [(expected,)]
