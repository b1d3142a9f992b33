"""Behavioural tests for all engines against hand-computed expectations."""

import gc
import random
import tracemalloc

import pytest

from repro.core import Automaton, CharSet, CounterMode, StartMode
from repro.engines import BitsetEngine, LazyDFAEngine, ReferenceEngine, VectorEngine
from repro.errors import CapacityError, EngineError

ENGINES = [ReferenceEngine, VectorEngine, BitsetEngine, LazyDFAEngine]
COUNTER_ENGINES = [ReferenceEngine, VectorEngine, BitsetEngine]


def unanchored_literal(pattern: str, code=None) -> Automaton:
    """Automaton reporting every occurrence of ``pattern`` in the stream."""
    a = Automaton(f"lit:{pattern}")
    prev = None
    for i, ch in enumerate(pattern):
        start = StartMode.ALL_INPUT if i == 0 else StartMode.NONE
        a.add_ste(
            f"s{i}",
            CharSet.from_chars(ch),
            start=start,
            report=i == len(pattern) - 1,
            report_code=code,
        )
        if prev is not None:
            a.add_edge(prev, f"s{i}")
        prev = f"s{i}"
    return a


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestBasicSemantics:
    def test_literal_match_offsets(self, engine_cls):
        eng = engine_cls(unanchored_literal("ab"))
        result = eng.run(b"xxabyabzab")
        assert [r.offset for r in result.reports] == [3, 6, 9]

    def test_overlapping_matches(self, engine_cls):
        eng = engine_cls(unanchored_literal("aa"))
        result = eng.run(b"aaaa")
        assert [r.offset for r in result.reports] == [1, 2, 3]

    def test_anchored_start_of_data(self, engine_cls):
        a = Automaton()
        a.add_ste("s0", CharSet.from_chars("a"), start=StartMode.START_OF_DATA)
        a.add_ste("s1", CharSet.from_chars("b"), report=True)
        a.add_edge("s0", "s1")
        eng = engine_cls(a)
        assert eng.count_reports(b"ab") == 1
        assert eng.count_reports(b"xab") == 0
        assert eng.count_reports(b"abab") == 1

    def test_empty_input(self, engine_cls):
        eng = engine_cls(unanchored_literal("a"))
        result = eng.run(b"")
        assert result.reports == [] and result.cycles == 0

    def test_no_match(self, engine_cls):
        eng = engine_cls(unanchored_literal("xyz"))
        assert eng.count_reports(b"aaaaaa") == 0

    def test_report_code_carried(self, engine_cls):
        eng = engine_cls(unanchored_literal("a", code="RULE7"))
        assert eng.run(b"a").reports[0].code == "RULE7"

    def test_branching_automaton(self, engine_cls):
        # s0(a) -> s1(b)! and s0(a) -> s2(c)!
        a = Automaton()
        a.add_ste("s0", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
        a.add_ste("s1", CharSet.from_chars("b"), report=True, report_code="b")
        a.add_ste("s2", CharSet.from_chars("c"), report=True, report_code="c")
        a.add_edge("s0", "s1")
        a.add_edge("s0", "s2")
        eng = engine_cls(a)
        codes = [r.code for r in eng.run(b"abac").reports]
        assert codes == ["b", "c"]

    def test_self_loop(self, engine_cls):
        # a+b matcher: s0(a, self-loop) -> s1(b)!
        a = Automaton()
        a.add_ste("s0", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
        a.add_ste("s1", CharSet.from_chars("b"), report=True)
        a.add_edge("s0", "s0")
        a.add_edge("s0", "s1")
        eng = engine_cls(a)
        assert [r.offset for r in eng.run(b"aaab").reports] == [3]
        assert eng.count_reports(b"b") == 0

    def test_charset_class_state(self, engine_cls):
        a = Automaton()
        a.add_ste(
            "digit",
            CharSet.from_ranges([(0x30, 0x39)]),
            start=StartMode.ALL_INPUT,
            report=True,
        )
        eng = engine_cls(a)
        assert eng.count_reports(b"a1b22c") == 3

    def test_run_result_reporting_cycles(self, engine_cls):
        eng = engine_cls(unanchored_literal("a"))
        assert eng.run(b"aba").reporting_cycles() == {0, 2}


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestActiveSet:
    def test_active_set_recorded(self, engine_cls):
        eng = engine_cls(unanchored_literal("ab"))
        result = eng.run(b"aab", record_active=True)
        assert len(result.active_per_cycle) == 3
        # cycle 0: only the all-input state; cycles 1,2: all-input + s1.
        assert result.active_per_cycle[0] == 1
        assert result.active_per_cycle[1] == 2

    def test_mean_active_set(self, engine_cls):
        eng = engine_cls(unanchored_literal("ab"))
        result = eng.run(b"aab", record_active=True)
        assert result.mean_active_set == pytest.approx((1 + 2 + 2) / 3)


@pytest.mark.parametrize("engine_cls", COUNTER_ENGINES)
class TestCounters:
    def make(self, target, mode):
        a = Automaton()
        a.add_ste("s", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
        a.add_counter("c", target, mode=mode, report=True, report_code="fired")
        a.add_edge("s", "c")
        return a

    def test_latch_counter(self, engine_cls):
        eng = engine_cls(self.make(3, CounterMode.LATCH))
        offsets = [r.offset for r in eng.run(b"aaaaa").reports]
        # Fires when the third 'a' arrives, then on every later count event.
        assert offsets == [2, 3, 4]

    def test_rollover_counter(self, engine_cls):
        eng = engine_cls(self.make(2, CounterMode.ROLLOVER))
        offsets = [r.offset for r in eng.run(b"aaaaaa").reports]
        assert offsets == [1, 3, 5]

    def test_stop_counter(self, engine_cls):
        eng = engine_cls(self.make(2, CounterMode.STOP))
        offsets = [r.offset for r in eng.run(b"aaaaaa").reports]
        assert offsets == [1]

    def test_counter_enables_successor(self, engine_cls):
        a = Automaton()
        a.add_ste("s", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
        a.add_counter("c", 2, mode=CounterMode.STOP)
        a.add_ste("t", CharSet.from_chars("b"), report=True)
        a.add_edge("s", "c")
        a.add_edge("c", "t")
        eng = engine_cls(a)
        # counter hits 2 on the second 'a'; 't' enabled next cycle.
        assert [r.offset for r in eng.run(b"aab").reports] == [2]
        assert eng.count_reports(b"ab") == 0

    def test_one_count_event_per_cycle(self, engine_cls):
        # Two predecessors matching in the same cycle = one count event.
        a = Automaton()
        a.add_ste("s1", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
        a.add_ste("s2", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
        a.add_counter("c", 2, mode=CounterMode.STOP, report=True)
        a.add_edge("s1", "c")
        a.add_edge("s2", "c")
        eng = engine_cls(a)
        assert [r.offset for r in eng.run(b"aa").reports] == [1]


class TestBitsetSpecifics:
    def test_compiles_above_65536_states(self):
        # 70 000 STEs, past the 65 536-state cap the engine had while its
        # per-state successor masks were quadratic: it must compile and
        # still agree with the reference, active set included.
        rng = random.Random(5)
        a = Automaton("above-cap")
        words = [bytes(rng.choice(b"abcd") for _ in range(35)) for _ in range(2000)]
        for w, word in enumerate(words):
            for i, ch in enumerate(word):
                a.add_ste(
                    f"w{w}_{i}",
                    CharSet.from_chars(chr(ch)),
                    start=StartMode.ALL_INPUT if i == 0 else StartMode.NONE,
                    report=i == len(word) - 1,
                    report_code=w,
                )
                if i:
                    a.add_edge(f"w{w}_{i - 1}", f"w{w}_{i}")
        data = bytes(rng.choice(b"abcd") for _ in range(200))
        data += words[7] + data[:100] + words[1999]
        eng = BitsetEngine(a)
        got = eng.run(data, record_active=True)
        ref = ReferenceEngine(a).run(data, record_active=True)
        assert eng._n == 70_000
        assert got.reports == ref.reports
        assert {r.code for r in got.reports} >= {7, 1999}
        assert got.active_per_cycle == ref.active_per_cycle

    def test_retained_memory_grows_linearly(self):
        # Quadratic per-state successor masks would grow 4x when the state
        # count doubles; the engine must stay near 2x.
        def retained(n):
            a = Automaton("chain")
            for i in range(n):
                start = StartMode.ALL_INPUT if i % 50 == 0 else StartMode.NONE
                a.add_ste(f"s{i}", CharSet.from_chars("abcd"[i % 4]), start=start)
                if i % 50:
                    a.add_edge(f"s{i - 1}", f"s{i}")
            BitsetEngine(a)  # one-off first-use allocations are not the engine's
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                engine = BitsetEngine(a)
                gc.collect()
                size = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert engine.count_reports(b"abcd") == 0
            return size

        assert retained(16_000) <= 2.2 * retained(8_000)


class TestLazyDFASpecifics:
    def test_rejects_counters(self):
        a = Automaton()
        a.add_ste("s", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
        a.add_counter("c", 2)
        a.add_edge("s", "c")
        with pytest.raises(EngineError):
            LazyDFAEngine(a)

    def test_state_budget_enforced(self):
        # The classic `a.{10}b` pattern: the DFA must remember which of the
        # last 10 positions held an 'a' -> up to 2^10 subsets.
        a = Automaton()
        a.add_ste("s0", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
        prev = "s0"
        for i in range(10):
            a.add_ste(f"w{i}", CharSet.all_bytes())
            a.add_edge(prev, f"w{i}")
            prev = f"w{i}"
        a.add_ste("end", CharSet.from_chars("b"), report=True)
        a.add_edge(prev, "end")
        import random

        rng = random.Random(7)
        data = bytes(rng.choice(b"ab") for _ in range(2000))
        eng = LazyDFAEngine(a, max_dfa_states=64)
        with pytest.raises(CapacityError):
            eng.run(data)

    def test_memoisation_reused_across_runs(self):
        eng = LazyDFAEngine(unanchored_literal("ab"))
        eng.run(b"abababab")
        states_after_first = eng.dfa_state_count
        eng.run(b"abababab")
        assert eng.dfa_state_count == states_after_first
