"""Property-based cross-engine equivalence.

The CPU engines implement one execution model; hypothesis generates
random automata and random inputs and asserts identical report streams and
active-set traces.  This is the library's central correctness invariant.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core import Automaton, CharSet, CounterMode, StartMode
from repro.engines import BitsetEngine, LazyDFAEngine, ReferenceEngine, VectorEngine

ALPHABET = b"abcd"


@st.composite
def random_automata(draw, max_states=8, with_counters=False):
    n = draw(st.integers(1, max_states))
    a = Automaton("random")
    for i in range(n):
        symbols = draw(
            st.frozensets(st.sampled_from(list(ALPHABET)), min_size=0, max_size=4)
        )
        start = draw(
            st.sampled_from(
                [StartMode.NONE, StartMode.START_OF_DATA, StartMode.ALL_INPUT]
            )
        )
        report = draw(st.booleans())
        a.add_ste(f"s{i}", CharSet(symbols), start=start, report=report, report_code=i)
    n_edges = draw(st.integers(0, 2 * n))
    for _ in range(n_edges):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        a.add_edge(f"s{src}", f"s{dst}")
    if with_counters:
        n_counters = draw(st.integers(1, 2))
        for c in range(n_counters):
            mode = draw(st.sampled_from(list(CounterMode)))
            target = draw(st.integers(1, 4))
            report = draw(st.booleans())
            a.add_counter(f"c{c}", target, mode=mode, report=report, report_code=f"c{c}")
            feeders = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
            for f in feeders:
                a.add_edge(f"s{f}", f"c{c}")
            enables = draw(st.sets(st.integers(0, n - 1), max_size=2))
            for e in enables:
                a.add_edge(f"c{c}", f"s{e}")
    return a


inputs = st.binary(max_size=40).map(
    lambda raw: bytes(ALPHABET[b % len(ALPHABET)] for b in raw)
)


@settings(max_examples=150, deadline=None)
@given(automaton=random_automata(), data=inputs)
def test_engines_agree(automaton, data):
    results = [
        engine_cls(automaton).run(data, record_active=True)
        for engine_cls in (ReferenceEngine, VectorEngine, BitsetEngine, LazyDFAEngine)
    ]
    baseline = results[0]
    for other in results[1:]:
        assert other.reports == baseline.reports
        assert other.cycles == baseline.cycles
        assert other.active_per_cycle == baseline.active_per_cycle


@settings(max_examples=100, deadline=None)
@given(automaton=random_automata(with_counters=True), data=inputs)
def test_counter_engines_agree(automaton, data):
    ref = ReferenceEngine(automaton).run(data, record_active=True)
    for engine_cls in (VectorEngine, BitsetEngine):
        other = engine_cls(automaton).run(data, record_active=True)
        assert other.reports == ref.reports
        assert other.active_per_cycle == ref.active_per_cycle


@settings(max_examples=50, deadline=None)
@given(automaton=random_automata(), data=inputs)
def test_runs_are_deterministic(automaton, data):
    eng = VectorEngine(automaton)
    assert eng.run(data).reports == eng.run(data).reports


@settings(max_examples=100, deadline=None)
@given(
    automaton=random_automata(with_counters=True),
    data=inputs,
    chunk=st.integers(1, 7),
)
def test_bitset_streaming_chunks_agree(automaton, data, chunk):
    """feed() boundaries are invisible: anchors, counters and the enabled
    set must carry across chunks exactly as in a single run."""
    ref = ReferenceEngine(automaton).run(data, record_active=True)
    stream = BitsetEngine(automaton).stream(record_active=True)
    reports = []
    for i in range(0, len(data), chunk):
        reports.extend(stream.feed(data[i : i + chunk]))
    reports.sort()
    assert reports == ref.reports
    assert stream.offset == ref.cycles
    assert stream.active_per_cycle == ref.active_per_cycle


@settings(max_examples=100, deadline=None)
@given(
    automaton=random_automata(with_counters=True),
    data=inputs,
    cut=st.sampled_from([0, float("inf")]),
)
def test_bitset_each_arm_agrees(automaton, data, cut):
    """Forced onto either successor arm — shift groups (cut 0) or the
    per-bit walk (cut infinity) — a fresh stream matches the reference
    engine, counters included: the arm choice only affects speed."""
    ref = ReferenceEngine(automaton).run(data, record_active=True)
    stream = BitsetEngine(automaton).stream(record_active=True)
    stream._shift_cut = cut
    reports = stream.feed(data)
    assert reports == ref.reports
    assert stream.active_per_cycle == ref.active_per_cycle


def test_bitset_arm_choice_is_per_symbol():
    """A dense always-matching band takes the shift arm from its first
    dense symbol, a dead stretch takes neither arm, and the next dense
    symbols take it again; reports agree with the reference engine."""
    a = Automaton("dense")
    a.add_ste("s0", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
    n_dense = 15
    for i in range(n_dense):
        a.add_ste(f"d{i}", CharSet.from_chars("a"), report=(i == 0), report_code=i)
        a.add_edge("s0", f"d{i}")
    for i in range(n_dense):
        for j in range(max(0, i - 1), min(n_dense, i + 2)):
            a.add_edge(f"d{i}", f"d{j}")
    data = b"a" * 600 + b"b" * 600 + b"a" * 10
    ref = ReferenceEngine(a).run(data, record_active=True)
    telemetry.reset()
    telemetry.enable()
    try:
        stream = BitsetEngine(a).stream(record_active=True)
        shifted = []
        reports = []
        for chunk in (b"a" * 600, b"b" * 600, b"a" * 10):
            reports += stream.feed(chunk)
            shifted.append(telemetry.counter_value("engine.shift_symbols.bitset"))
    finally:
        telemetry.disable()
        telemetry.reset()
    # At most 17 offsets (s0's fifteen, and -1, 0, 1 in the band), so the
    # cut is at most 8.5.  Symbol 0 and the first "a" after the dead
    # stretch match only the start state; every other "a" matches all
    # fifteen band states.
    assert shifted == [599, 599, 608]
    reports.sort()
    assert reports == ref.reports
    assert stream.active_per_cycle == ref.active_per_cycle


@settings(max_examples=50, deadline=None)
@given(automaton=random_automata(), data=inputs, split=st.integers(0, 40))
def test_dfa_memoisation_is_input_independent(automaton, data, split):
    """Running other inputs first must not change results (memo soundness)."""
    split = min(split, len(data))
    eng = LazyDFAEngine(automaton)
    eng.run(data[split:])  # warm the memo with a different stream
    fresh = LazyDFAEngine(automaton).run(data)
    assert eng.run(data).reports == fresh.reports
