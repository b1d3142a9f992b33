"""BitsetEngine results do not depend on the order states arrive in.

The engine numbers its states itself (generator order or a Cuthill–McKee
order, whichever has fewer successor offsets), so a different insertion
order of the same automaton changes its numbering, its shift groups and
its arm choices.  Every benchmark generator is rebuilt with its elements
and edges inserted in a seeded-random and in reversed order, then scanned
whole and in chunks of 511, 513 and 1 500 symbols, under a scan guard (so
the feed loop also steps in 512-symbol deadline blocks) and, whole, without
one; reports and active-set traces must equal the reference engine's on the
original.
"""

import random

import pytest

from repro.benchmarks import BENCHMARK_NAMES, build_benchmark
from repro.conformance.goldens import GOLDEN_SCALE, GOLDEN_SEED
from repro.core import Automaton
from repro.engines import BitsetEngine, ReferenceEngine
from repro.resilience import ScanBudget, ScanGuard, guard_scope

LIMIT = 1600
#: (feed size or None for the whole slice, scanned under a guard)
SCANS = ((None, False), (None, True), (511, True), (513, True), (1500, True))


def _rebuilt(automaton: Automaton, order) -> Automaton:
    """The same automaton with elements and edges inserted in ``order``."""
    out = Automaton(automaton.name)
    for element in order(list(automaton.elements())):
        out.add_element(element)
    for src, dst in order(list(automaton.edges())):
        out.add_edge(src, dst)
    for src, counter in order(list(automaton.reset_edges())):
        out.add_reset_edge(src, counter)
    return out


def _shuffled(items):
    random.Random(1234).shuffle(items)
    return items


def _reversed(items):
    return items[::-1]


def _scan(engine, data, chunk, guarded):
    stream = engine.stream(record_active=True)
    reports = []
    chunk = chunk or max(len(data), 1)
    with guard_scope(ScanGuard(ScanBudget(wall_s=600.0)) if guarded else None):
        for pos in range(0, len(data), chunk):
            reports += stream.feed(data[pos : pos + chunk])
    reports.sort()
    return reports, stream.active_per_cycle


@pytest.mark.slow
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_bitset_is_renumbering_invariant(name):
    bench = build_benchmark(name, scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    data = bench.input_data[:LIMIT]
    ref = ReferenceEngine(bench.automaton).run(data, record_active=True)
    for order in (_shuffled, _reversed):
        engine = BitsetEngine(_rebuilt(bench.automaton, order))
        for chunk, guarded in SCANS:
            reports, active = _scan(engine, data, chunk, guarded)
            assert reports == ref.reports, (order.__name__, chunk, guarded)
            assert active == ref.active_per_cycle, (order.__name__, chunk, guarded)
