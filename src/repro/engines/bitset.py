"""Bit-parallel packed-bitmask NFA engine (the CPU hot path).

The active set is one packed bitmask: bit ``i`` is set iff state ``i`` is
enabled.  One step is (a) AND with the precomputed per-symbol membership
mask (256 masks, packed with the same ``np.packbits`` layout as
:class:`~repro.engines.vector.VectorEngine`), then (b) OR of the matched
states' successors.  Reports are harvested from the matched mask only on
cycles where the report-mask AND is nonzero, and ``record_active`` is a
popcount — so Table I statistics reproduce exactly.

Two structural decisions make this engine fast where the numpy engines are
not:

* **Masks are CPython big integers**, not numpy arrays.  A big int *is* a
  packed word array operated on in C, and a whole-mask AND/OR is a single
  interpreter call.  (On the Snort ablation a numpy ``uint64[words]`` loop
  with preallocated scratch ran 10-20x *slower*: three-to-six numpy calls
  per symbol cost more than the whole step, as in the repo's
  :class:`~repro.baselines.shift_and.ShiftAndMatcher`.)
* **ALL_INPUT start states are lifted out of the loop.**  Their matches
  depend only on the current symbol, so their successor-OR, report lists
  and counter feed/reset events are precomputed per symbol (256 entries).
  The per-symbol loop then only walks the *non-start* matched bits, which
  on low-activity workloads (Snort) averages below one bit per symbol.

Successor propagation takes one of two arms, chosen per symbol from the
popcount of the matched mask ``m`` that the loop computes anyway:

* **per-bit walk** — visit the matched bits, highest first (``bit_length``)
  and OR in each state's shifted successor pattern; cost proportional to
  the matched count.
* **shift arm** — Hyperscan's LimEx step.  Edges are grouped by offset
  ``k = dst - src`` and the step is ``next |= (m & src_mask_k) << k`` per
  group; cost proportional to the offset count, whatever the density.
  Taken when the popcount exceeds :data:`_SHIFT_FRACTION` of that count.

Compilation numbers the states in whichever order has fewer distinct
offsets: generator order, or a Cuthill–McKee breadth-first order (lowest
degree first, per connected component), which puts neighbours together.
At scale 0.01, Levenshtein 37x10 falls from 2 750 offsets to 330 and
CRISPR CasOT from 460 to 68; rule sets keep generator order (at most
seven offsets).  Results do not depend on the numbering.

The shift arm replaced a byte-word "block" walk over a memoised lookup
table (Levenshtein 37x10, first 2 000 symbols, 2-vCPU Xeon VM: 2.5 s with
the block walk forced on, 0.47 s on the shift arm).

Memory grows linearly, so automata of any size compile.  The per-bit walk
reads each state's interned ``(pattern, lowest offset)`` pair: state ``i``'s
successors are ``pattern << (i + lowest)``, so the engine keeps n references
and the distinct patterns (ClamAV at 71k states: 8).  Shift groups take n
bits per offset, the per-symbol tables two n-bit masks per byte value.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, compress
from operator import attrgetter

import numpy as np

from repro import telemetry
from repro.core.automaton import Automaton
from repro.core.charset import pack_membership
from repro.core.elements import STE, StartMode
from repro.engines.base import Engine, ReportEvent, RunResult
from repro.engines.reference import _CounterState
from repro.resilience.guards import current_guard

__all__ = ["BitsetEngine", "BitsetStream"]

_GUARD_SYMBOLS = 512  # symbols between ScanGuard deadline checks
#: Shift-arm cut: one shift group (AND, shift, OR over the mask) costs about
#: twice one matched bit of the per-bit walk, so the shift arm is taken when
#: the matched popcount exceeds this fraction of the offset count.
_SHIFT_FRACTION = 0.5


def _flag_int(flags) -> int:
    """The big int whose bit ``i`` is the ``i``-th of the boolean ``flags``."""
    packed = np.packbits(np.fromiter(flags, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _pack_rows(keys: np.ndarray, bits: np.ndarray) -> tuple[list, list, list]:
    """Pack ``(key, bit)`` pairs into one big int per distinct key.

    Returns the sorted distinct keys and, for each, its lowest paired bit
    ``lo`` and the int with bit ``b - lo`` set for every paired bit ``b``.
    A key's bits are packed over their own span only, so one
    ``np.packbits`` call does work proportional to the ints' size.
    """
    if not len(keys):
        return [], [], []
    order = np.argsort(keys, kind="stable")
    keys, bits = keys[order], bits[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    lo = np.minimum.reduceat(bits, starts)
    width = ((np.maximum.reduceat(bits, starts) - lo) >> 3) + 1
    ends = np.cumsum(width)
    row = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(keys)]))
    flat = np.zeros(int(ends[-1]) * 8, dtype=bool)
    flat[((ends - width)[row] << 3) + bits - lo[row]] = True
    buf = np.packbits(flat, bitorder="little").tobytes()
    widths = width.tolist()  # small shared ints; no list of n ends is kept
    spans = zip(widths, accumulate(widths))
    ints = [int.from_bytes(buf[b - w : b], "little") for w, b in spans]
    return keys[starts].tolist(), ints, lo.tolist()


def _cuthill_mckee(n: int, src: np.ndarray, dst: np.ndarray) -> list[int]:
    """Cuthill–McKee order of the undirected edge graph (new -> old index).

    Breadth-first from the lowest-degree unvisited state of each connected
    component, visiting neighbours in order of increasing degree.  The
    adjacency is an ``array`` rather than a list: half the peak memory.
    """
    loop = src == dst
    u = np.concatenate((src[~loop], dst[~loop]))
    v = np.concatenate((dst[~loop], src[~loop]))
    degree = np.bincount(u, minlength=n)
    key = (u.astype(np.int64) * (int(degree.max()) + 1) + degree[v]) * n + v
    nbrs = array("i", v[np.argsort(key)].astype(np.intc).tobytes())
    bounds = np.r_[0, np.cumsum(degree)].tolist()
    seen = bytearray(n)
    order: list[int] = []
    append = order.append
    for root in np.argsort(degree, kind="stable").tolist():
        if seen[root]:
            continue
        seen[root] = 1
        head = len(order)
        append(root)
        while head < len(order):
            x = order[head]
            head += 1
            for y in nbrs[bounds[x] : bounds[x + 1]]:
                if not seen[y]:
                    seen[y] = 1
                    append(y)
    return order


def _numbering(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
    """Old -> new state index minimising distinct offsets; ``None`` keeps
    generator order (also on ties, and when it needs no more offsets than
    the largest out-degree, which no numbering can beat)."""
    generator = np.unique(dst - src).size
    if generator <= np.bincount(src).max(initial=0):
        return None
    rank = np.empty(n, dtype=np.int32)
    rank[_cuthill_mckee(n, src, dst)] = np.arange(n, dtype=np.int32)
    return rank if np.unique(rank[dst] - rank[src]).size < generator else None


class BitsetEngine(Engine):
    """Bit-parallel active-set simulation of a homogeneous automaton."""

    def __init__(self, automaton: Automaton) -> None:
        super().__init__(automaton)
        compile_t0 = telemetry.clock()
        stes: list[STE] = list(automaton.stes())
        n = len(stes)

        # The one walk over the edges, as index pairs (counters take indices
        # from n up, so an edge into a counter has dst >= n).  Successor lists
        # are dropped as read: kept, they made the GC rescan the whole heap.
        idents = list(map(attrgetter("ident"), stes))
        counter_ids = [c.ident for c in automaton.counters()]
        index = {ident: i for i, ident in enumerate(chain(idents, counter_ids))}
        lengths = np.fromiter(map(automaton.out_degree, idents), np.int64, n)
        src = np.repeat(np.arange(n, dtype=np.int32), lengths)
        ends = chain.from_iterable(map(automaton.successors, idents))
        dst = np.fromiter(map(index.__getitem__, ends), np.int32, len(src))
        feeds: dict[int, tuple[str, ...]] = {}
        into = dst >= n
        if into.any():
            for i, c in zip(src[into].tolist(), dst[into].tolist()):
                feeds[i] = feeds.get(i, ()) + (counter_ids[c - n],)
            src, dst = src[~into], dst[~into]
        if (rank := _numbering(n, src, dst)) is not None:
            order = np.argsort(rank).tolist()
            stes = [stes[i] for i in order]
            idents = [idents[i] for i in order]
            src, dst = rank[src], rank[dst]
            feeds = {int(rank[i]): f for i, f in feeds.items()}
            index.update(zip(idents, range(n)))
        self._idents = idents
        self._n = n
        self._counter_feeds = feeds
        self._reset_feeds: dict[int, tuple[str, ...]] = {}
        for source, counter in automaton.reset_edges():
            i = index.get(source, n)
            if i < n:
                self._reset_feeds[i] = self._reset_feeds.get(i, ()) + (counter,)
        # Counters (rare; handled per-event in Python, as in VectorEngine).
        self._counters = {c.ident: c for c in automaton.counters()}
        self._counter_succ_int = {  # edges are unique, so the sum is an OR
            c: sum(1 << j for j in map(index.get, automaton.successors(c)) if j < n)
            for c in self._counters
        }
        self._has_counters = bool(self._counters)
        del index

        # Shift groups by offset sign, then each state's successors as an
        # interned (pattern, lowest offset) pair: linear memory, not n^2.
        off = dst - src
        offsets, groups, lows = _pack_rows(off, src)
        shifts = [(g << lo, k) for k, g, lo in zip(offsets, groups, lows)]
        self._shift_up = [(g, k) for g, k in shifts if k >= 0]
        self._shift_down = [(g, -k) for g, k in shifts if k < 0]
        self._shift_cut = _SHIFT_FRACTION * len(offsets)
        patterns: dict[tuple[int, int], tuple[int, int]] = {}
        self._succ = succ = [(0, 0)] * n
        for i, pattern, lo in zip(*_pack_rows(src, off)):
            succ[i] = patterns.setdefault((pattern, lo), (pattern, lo))
        del src, dst, off

        self._report_int = _flag_int(map(attrgetter("report"), stes))
        self._report_codes = list(map(attrgetter("report_code"), stes))
        fed_or_reset = feeds.keys() | self._reset_feeds.keys()
        self._feed_int = _flag_int(map(fed_or_reset.__contains__, range(n)))
        starts = list(map(attrgetter("start"), stes))
        is_all = [s is StartMode.ALL_INPUT for s in starts]
        all_input = _flag_int(is_all)
        self._not_all = ~all_input
        self._all_count = all_input.bit_count()
        self._initial_rest = _flag_int(s is StartMode.START_OF_DATA for s in starts)

        # ALL_INPUT start states match as a function of the symbol alone:
        # precompute their successor-OR, reports, and counter feed/reset
        # events once per symbol so the hot loop never touches them.  The
        # states are merged per distinct charset first (few per benchmark).
        by_charset: dict = {}
        for i in compress(range(n), is_all):
            by_charset.setdefault(stes[i].charset, []).append(i)
        start_next = [0] * 256
        start_reports: list[tuple[int, ...]] = [()] * 256
        start_events: list[tuple[str, ...]] = [()] * 256
        start_resets: list[tuple[str, ...]] = [()] * 256
        self._start_events, self._start_resets = start_events, start_resets
        for charset, members in by_charset.items():
            nxt = 0
            reps = fed = resets = ()
            for i in members:
                pattern, lo = succ[i]
                nxt |= pattern << (i + lo)
                reps += (i,) if stes[i].report else ()
                fed += feeds.get(i, ())
                resets += self._reset_feeds.get(i, ())
            nxt &= self._not_all
            for sym in charset:
                start_next[sym] |= nxt
                start_reports[sym] += reps
                start_events[sym] += fed
                start_resets[sym] += resets
        # Fused per-symbol row (membership mask, premasked start successors,
        # sorted start reports): one list index in the hot loop.
        charbits = pack_membership(list(map(attrgetter("charset"), stes)))
        self._sym_tab = [
            (int.from_bytes(row.tobytes(), "little"), nxt, tuple(sorted(r)))
            for row, nxt, r in zip(charbits, start_next, start_reports)
        ]
        telemetry.record_compile("bitset", compile_t0, n)
        telemetry.incr("engine.shift_offsets.bitset", len(offsets))
        telemetry.incr("engine.succ_patterns.bitset", len(patterns))

    # -- execution ---------------------------------------------------------

    def stream(self, *, record_active: bool = False) -> "BitsetStream":
        """A streaming session: feed chunks, state persists between feeds."""
        return BitsetStream(self, record_active=record_active)

    def run(self, data: bytes, *, record_active: bool = False) -> RunResult:
        session = self.stream(record_active=record_active)
        reports = session.feed(data)
        return RunResult(
            reports=reports,
            cycles=session.offset,
            active_per_cycle=session.active_per_cycle,
        )


class BitsetStream:
    """Persistent execution state for :class:`BitsetEngine`.

    The state is the non-start part of the enabled mask (ALL_INPUT states
    are implicitly always enabled) plus the counter states, so chunk
    boundaries are invisible; the successor arm is chosen per symbol.
    """

    def __init__(self, engine: BitsetEngine, *, record_active: bool = False) -> None:
        self._engine = engine
        self.offset = 0
        self.active_per_cycle: list[int] | None = [] if record_active else None
        self._counter_state = {
            ident: _CounterState(element)
            for ident, element in engine._counters.items()
        }
        self._rest = engine._initial_rest
        self._shift_cut = engine._shift_cut

    def feed(self, data: bytes) -> list[ReportEvent]:
        scan_t0 = telemetry.clock()
        reports: list[ReportEvent] = []
        base = self.offset
        rest = self._rest
        length = len(data)
        total_pop = total_shifted = 0
        guard = current_guard()
        if guard is not None:
            guard.check_deadline("bitset", base)
        step = _GUARD_SYMBOLS if guard is not None else max(length, 1)
        for pos in range(0, length, step):
            if guard is not None:
                guard.check_deadline("bitset", base + pos)
            rest, pop, shifted = self._run(
                data, pos, min(pos + step, length), rest, base, reports
            )
            total_pop += pop
            total_shifted += shifted
        self._rest = rest
        self.offset = base + length
        reports.sort()
        if scan_t0 is not None:
            telemetry.record_scan("bitset", scan_t0, length, len(reports))
            telemetry.incr("engine.matched_states.bitset", total_pop)
            telemetry.incr("engine.shift_symbols.bitset", total_shifted)
        return reports

    def _run(self, data, pos, end, rest, base, reports):
        """Step ``data[pos:end]``; return (rest, matched popcount, shift symbols).

        The no-match arm is the hot one on low-activity workloads: one fused
        table row, one AND, and the next mask comes straight from the table.
        """
        engine = self._engine
        tab = engine._sym_tab
        succ = engine._succ
        shift_up = engine._shift_up
        shift_down = engine._shift_down
        cut = self._shift_cut
        rep_int = engine._report_int
        feed_int = engine._feed_int
        not_all = engine._not_all
        idents = engine._idents
        codes = engine._report_codes
        all_count = engine._all_count
        has_counters = engine._has_counters
        start_events = engine._start_events
        start_resets = engine._start_resets
        active = self.active_per_cycle
        append = reports.append
        pop = shifted = 0
        for offset, sym in enumerate(data[pos:end], pos):
            if active is not None:
                active.append(all_count + rest.bit_count())
            mask, nxt, sr = tab[sym]
            m = rest & mask
            if sr:
                at = base + offset
                for i in sr:
                    append(ReportEvent(at, idents[i], codes[i]))
            if m:
                count = m.bit_count()
                pop += count
                hits = m & rep_int
                if hits:
                    at = base + offset
                    while hits:
                        low = hits & -hits
                        i = low.bit_length() - 1
                        append(ReportEvent(at, idents[i], codes[i]))
                        hits ^= low
                if count > cut:
                    shifted += 1
                    for group, k in shift_up:
                        moved = m & group
                        if moved:
                            nxt |= moved << k
                    for group, k in shift_down:
                        moved = m & group
                        if moved:
                            nxt |= moved >> k
                else:
                    mm = m
                    while mm:
                        i = mm.bit_length() - 1
                        pattern, lo = succ[i]
                        nxt |= pattern << (i + lo)
                        mm ^= 1 << i
                if has_counters and (
                    start_events[sym] or start_resets[sym] or m & feed_int
                ):
                    nxt |= self._counter_cycle(
                        sym, m & feed_int, base + offset, reports
                    )
                rest = nxt & not_all
            elif has_counters and (start_events[sym] or start_resets[sym]):
                extra = self._counter_cycle(sym, 0, base + offset, reports)
                rest = (nxt | extra) & not_all
            else:
                rest = nxt
        return rest, pop, shifted

    def _counter_cycle(self, sym, fed, offset, reports):
        """Apply one cycle of counter resets/events; return fired successors."""
        engine = self._engine
        events = set(engine._start_events[sym])
        resets = set(engine._start_resets[sym])
        counter_feeds = engine._counter_feeds
        reset_feeds = engine._reset_feeds
        while fed:
            low = fed & -fed
            i = low.bit_length() - 1
            events.update(counter_feeds.get(i, ()))
            resets.update(reset_feeds.get(i, ()))
            fed ^= low
        state = self._counter_state
        # Resets apply before this cycle's count events (Section XI).
        for ident in resets:
            state[ident].reset()
        extra = 0
        for ident in sorted(events):
            counter = state[ident]
            if counter.on_count_event():
                element = counter.element
                if element.report:
                    reports.append(ReportEvent(offset, ident, element.report_code))
                extra |= engine._counter_succ_int[ident]
        return extra
