"""Unit tests for cardinality injection hooks."""

from repro.optimizer import ChainInjection, DictInjection, PerfectInjection


class FakeQuery:
    aliases = ["a", "b", "c"]
    name = "fake"


class TestDictInjection:
    def test_set_get(self):
        injector = DictInjection()
        injector.set({"a", "b"}, 42)
        assert injector.lookup(FakeQuery(), frozenset({"a", "b"})) == 42.0
        assert frozenset({"a", "b"}) in injector
        assert len(injector) == 1

    def test_constructor_values(self):
        injector = DictInjection({frozenset({"a"}): 7})
        assert injector.lookup(FakeQuery(), frozenset({"a"})) == 7.0
        assert "1 subsets" in injector.describe()


class TestPerfectInjection:
    def test_respects_max_tables(self):
        calls = []

        def oracle(query, subset):
            calls.append(subset)
            return 100.0

        injector = PerfectInjection(oracle, max_tables=2)
        assert injector.lookup(FakeQuery(), frozenset({"a"})) == 100.0
        assert injector.lookup(FakeQuery(), frozenset({"a", "b"})) == 100.0
        assert injector.lookup(FakeQuery(), frozenset({"a", "b", "c"})) is None
        assert len(calls) == 2
        assert injector.describe() == "perfect-(2)"

    def test_zero_tables_disables(self):
        injector = PerfectInjection(lambda q, s: 1.0, max_tables=0)
        assert injector.lookup(FakeQuery(), frozenset({"a"})) is None


class TestChainInjection:
    def test_first_answer_wins(self):
        first = DictInjection({frozenset({"a"}): 1})
        second = DictInjection({frozenset({"a"}): 2, frozenset({"b"}): 3})
        chain = ChainInjection([first, second])
        assert chain.lookup(FakeQuery(), frozenset({"a"})) == 1.0
        assert chain.lookup(FakeQuery(), frozenset({"b"})) == 3.0
        assert chain.lookup(FakeQuery(), frozenset({"c"})) is None
        assert "+" in chain.describe()
