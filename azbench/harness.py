"""One benchmark run: timed passes over a workload, checked against expected outputs.

A run makes a fixed number of *passes*, enough to fill its time on a quiet
host (``Workload.pass_s``).  A pass clears the engine
compile cache, then walks the workload's rows: build, lint, (prefix merge
and static statistics on suite-build), compile, then the row's scan modes.
Every call into a ``repro`` layer goes through :class:`~azbench.tracing.Recorder`.

An *operation* is one row summary or one (row, engine, mode) scan.  It fails
when it raises or when its output differs from the expected output; failed
operations are counted, never dropped.  Expected outputs come from
``pins.json`` for the pinned seeds and from :func:`compute_pins`
(:class:`ReferenceEngine`), run after the timed passes, for any other seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.analysis import lint_benchmark
from repro.benchmarks import build_benchmark
from repro.engines import (
    LazyDFAEngine,
    ReferenceEngine,
    auto_engine,
    clear_engine_cache,
    engine_cache_info,
)
from repro.errors import LintError
from repro.stats import compute_static_stats, measure_dynamic
from repro.transforms.prefix_merge import merge_common_prefixes

from azbench.hostspeed import REFERENCE_S
from azbench.tracing import Recorder, self_times
from azbench.workloads import DFA, FEED, MTU, SCAN, Row, Workload, row_slug

__all__ = [
    "DEFAULT_SEED",
    "PINNED_SEEDS",
    "PINS_PATH",
    "RunOutcome",
    "compute_pins",
    "load_pins",
    "run_workload",
]

DEFAULT_SEED = 0
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Warm lazy-DFA scans per row and pass.  The first one or two after the
#: cold scan promote the memo to dense tables; the median of five is the
#: promoted speed wherever the promotion happens.
DFA_WARM_SCANS = 5

_ENGINE_LABELS = {"BitsetEngine": "bitset", "VectorEngine": "vector"}

#: Per-row scan slices kept as per-layer metrics: the rows that carry their
#: workload's scan time.  Other rows count only in the per-engine totals.
SLICED_ROWS = {
    "bitset": (
        "hamming-31x10", "levenshtein-24x5", "levenshtein-37x10", "crispr-casot",
        "random-forest-c", "entity-resolution", "snort", "clamav", "protomata",
        "brill", "yara", "yara-wide", "file-carving",
    ),
    "vector": ("clamav",),
}  # fmt: skip


def report_digest(reports) -> str:
    """Order-independent SHA-256 of a report stream (offset, ident, code)."""
    h = hashlib.sha256()
    for offset, ident, code in sorted((r.offset, r.ident, str(r.code)) for r in reports):
        h.update(f"{offset}\t{ident}\t{code}\n".encode())
    return h.hexdigest()


def _label(engine) -> str:
    return _ENGINE_LABELS.get(type(engine).__name__, type(engine).__name__.lower())


@dataclass
class PassResult:
    """What one pass did, how long each part took, and what it output."""

    #: Wall seconds of the whole pass, harness work and probes included.
    total_s: float = 0.0
    #: (kind, row) -> seconds of each scan or feed; kind is scan, feed,
    #: dfa_cold or dfa_warm.
    samples: dict[tuple[str, str], list[float]] = field(default_factory=lambda: defaultdict(list))
    #: row -> symbols in its scanned slice.
    symbols: dict[str, int] = field(default_factory=dict)
    states: int = 0
    input_symbols: int = 0
    merge_before: int = 0
    merge_after: int = 0
    compile_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    engine_scan_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    feed_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    cache_hits: int = 0
    cache_lookups: int = 0
    #: (row slug, op) in the order attempted.
    ops: list[tuple[str, str]] = field(default_factory=list)
    outputs: dict[tuple[str, str], dict] = field(default_factory=dict)
    errors: dict[tuple[str, str], str] = field(default_factory=dict)
    #: Per-layer values, filled on traced passes only.
    layers: dict[str, float] = field(default_factory=dict)
    telemetry_snapshot: dict | None = None
    #: (row, call name, occurrence in the row) -> seconds of every call
    #: into the program at the reference host speed, in the order made.
    calls: dict[tuple[str | None, str, int], float] = field(default_factory=dict)
    #: Probe seconds over :data:`~azbench.hostspeed.REFERENCE_S`, averaged
    #: over the pass's probes: how much slower than the reference the host ran.
    host_slowdown: float = 1.0


class _Pass:
    """Runs one pass of one workload, filling a :class:`PassResult`."""

    def __init__(self, workload: Workload, seed: int, rec: Recorder) -> None:
        self.workload = workload
        self.seed = seed
        self.rec = rec
        self.res = PassResult()

    def op(self, slug: str, name: str, fn) -> None:
        """Run one operation; an exception fails it and the pass goes on."""
        key = (slug, name)
        self.res.ops.append(key)
        try:
            self.res.outputs[key] = fn()
        except Exception as exc:  # the pass must survive any row's failure
            self.res.errors[key] = f"{type(exc).__name__}: {exc}"

    def run(self) -> PassResult:
        res, rec = self.res, self.rec
        clear_engine_cache()
        start = time.perf_counter()
        with rec.call("harness.pass"):
            for row in self.workload.rows:
                self.row(row)
            with rec.call("engines.engine_cache_info"):
                info = engine_cache_info()
        res.total_s = time.perf_counter() - start
        res.cache_hits = info.hits
        res.cache_lookups = info.hits + info.misses
        return res

    def row(self, row: Row) -> None:
        res, rec = self.res, self.rec
        slug = row_slug(row.name)
        with rec.call("harness.row", slug):
            try:
                with rec.call("benchmarks.build_benchmark", slug):
                    bench = build_benchmark(row.name, scale=row.scale, seed=self.seed, lint=False)
                with rec.call("analysis.lint_benchmark", slug):
                    report = lint_benchmark(row.name, bench.automaton)
                if report.errors:
                    raise LintError(row.name, report.errors)
            except Exception as exc:  # a broken build fails every op of the row
                for name in _row_ops(row, self.workload):
                    res.ops.append((slug, name))
                    res.errors[(slug, name)] = f"{type(exc).__name__}: {exc}"
                return
            automaton = bench.automaton
            data = bench.input_data[: row.limit]
            res.states += automaton.n_states
            res.input_symbols += len(data)
            res.symbols[slug] = len(data)
            if self.workload.summarize:
                self.op(slug, "summary", lambda: self.summary(slug, automaton, bench.compressible))
            engine = []
            if SCAN in row.modes:
                self.op(slug, "scan.cold", lambda: self.scan_cold(slug, automaton, data, engine))
                self.op(slug, "scan.warm", lambda: self.scan_warm(slug, data, engine, row.repeats))
            if FEED in row.modes:
                self.op(slug, "feed", lambda: self.feed(slug, data, engine, row.repeats))
            if DFA in row.modes:
                dfa = []
                self.op(slug, "dfa.cold", lambda: self.dfa_cold(slug, automaton, data, dfa))
                self.op(slug, "dfa.warm", lambda: self.dfa_warm(slug, data, dfa))

    def summary(self, slug, automaton, compressible) -> dict:
        res, rec = self.res, self.rec
        compressed = None
        if compressible:
            with rec.call("transforms.merge_common_prefixes", slug):
                _, merge = merge_common_prefixes(automaton)
            compressed = merge.states_after
            res.merge_before += merge.states_before
            res.merge_after += merge.states_after
        with rec.call("stats.compute_static_stats", slug):
            static = compute_static_stats(automaton)
        return {
            "states": static.states,
            "edges": static.edges,
            "subgraphs": static.subgraph_count,
            "compressed_states": compressed,
        }

    def scan_cold(self, slug, automaton, data, engine_slot) -> dict:
        res, rec = self.res, self.rec
        with rec.call("engines.compile.auto", slug) as t:
            engine = auto_engine(automaton)
        engine_slot.append(engine)
        res.compile_s[_label(engine)] += t[0]
        # measure_dynamic looks the engine up in the compile cache (a hit)
        # and makes the row's first, cold scan: the Table I active set.
        with rec.call("stats.measure_dynamic", slug):
            dyn = measure_dynamic(automaton, data)
        return {"reports": dyn.report_count, "active_sum": round(dyn.mean_active_set * dyn.symbols)}

    def scan_warm(self, slug, data, engine_slot, repeats) -> dict:
        res, rec = self.res, self.rec
        engine = _compiled(engine_slot)
        label = _label(engine)
        outputs = []
        for _ in range(repeats):
            with rec.call(f"engines.run.{label}", slug) as t:
                result = engine.run(data, record_active=True)
            res.samples["scan", slug].append(t[0])
            res.engine_scan_s[label] += t[0]
            res.engine_scan_s[f"{label}.{slug}"] += t[0]
            outputs.append(
                {
                    "digest": report_digest(result.reports),
                    "reports": result.report_count,
                    "active_sum": sum(result.active_per_cycle),
                }
            )
        return _same(outputs)

    def feed(self, slug, data, engine_slot, repeats) -> dict:
        """Stream the slice in MTU chunks, ``repeats`` times, each from a fresh stream."""
        res, rec = self.res, self.rec
        engine = _compiled(engine_slot)
        label = _label(engine)
        outputs = []
        for _ in range(repeats):
            stream = engine.stream()
            reports = []
            for pos in range(0, len(data), MTU):
                chunk = data[pos : pos + MTU]
                with rec.call(f"engines.feed.{label}", slug) as t:
                    reports.extend(stream.feed(chunk))
                res.feed_s[label] += t[0]
                # Only full chunks are latency samples: a short last chunk
                # would add a second, seed-dependent mode to the distribution.
                if len(chunk) == MTU:
                    res.samples["feed", slug].append(t[0])
            outputs.append({"digest": report_digest(reports), "reports": len(reports)})
        return _same(outputs)

    def dfa_cold(self, slug, automaton, data, dfa_slot) -> dict:
        """A fresh lazy DFA's first scan, from an empty memo."""
        res, rec = self.res, self.rec
        with rec.call("engines.compile.dfa", slug) as t:
            dfa_slot.append(LazyDFAEngine(automaton))
        res.compile_s["dfa"] += t[0]
        with rec.call("engines.run.dfa_cold", slug) as t:
            result = dfa_slot[0].run(data)
        res.samples["dfa_cold", slug].append(t[0])
        return {"digest": report_digest(result.reports), "reports": result.report_count}

    def dfa_warm(self, slug, data, dfa_slot) -> dict:
        """Scans after the cold one; the first of them may promote the DFA."""
        res, rec = self.res, self.rec
        dfa = _compiled(dfa_slot)
        outputs = []
        for _ in range(DFA_WARM_SCANS):
            with rec.call("engines.run.dfa_warm", slug) as t:
                result = dfa.run(data)
            res.samples["dfa_warm", slug].append(t[0])
            outputs.append({"digest": report_digest(result.reports), "reports": result.report_count})
        return _same(outputs)


def _same(outputs: list[dict]) -> dict:
    """The output of repeated scans, which must all agree."""
    for other in outputs[1:]:
        if other != outputs[0]:
            raise ValueError(f"repeated scans disagree: {outputs[0]} then {other}")
    return outputs[0]


def _compiled(engine_slot):
    if not engine_slot:
        raise RuntimeError("the engine this operation scans with failed to compile")
    return engine_slot[0]


def _row_ops(row: Row, workload: Workload) -> list[str]:
    ops = ["summary"] if workload.summarize else []
    if SCAN in row.modes:
        ops += ["scan.cold", "scan.warm"]
    if FEED in row.modes:
        ops.append("feed")
    if DFA in row.modes:
        ops += ["dfa.cold", "dfa.warm"]
    return ops


# -- expected outputs ----------------------------------------------------------


def reference_outputs(automaton, data) -> dict:
    """Report digest, report count and active-set sum from ReferenceEngine."""
    result = ReferenceEngine(automaton).run(data, record_active=True)
    return {
        "digest": report_digest(result.reports),
        "reports": result.report_count,
        "active_sum": sum(result.active_per_cycle),
    }


#: Seeds whose expected outputs ``pins.json`` holds: the default seed and
#: the seeds ``steady.py`` and ``compare.py`` run by default.  A change that
#: breaks a generator, the prefix merge or the static statistics then fails
#: against stored values, not against its own output.
PINNED_SEEDS = tuple(range(11))


def compute_pins(workload: Workload, seed: int = DEFAULT_SEED) -> dict:
    """Expected outputs of the rows of ``workload`` at ``seed``, by row slug.

    ReferenceEngine scans each row's slice; on a summarising workload the
    Table I columns come from a separate build, prefix merge and static
    statistics.  A row that fails to build or lint gets no entry: every
    operation of that row has already failed in the passes.
    """
    rows = {}
    for row in workload.rows:
        try:
            bench = build_benchmark(row.name, scale=row.scale, seed=seed)
        except Exception:
            continue
        data = bench.input_data[: row.limit]
        pin = {"scale": row.scale, "limit": row.limit, **reference_outputs(bench.automaton, data)}
        if workload.summarize:
            static = compute_static_stats(bench.automaton)
            compressed = None
            if bench.compressible:
                compressed = merge_common_prefixes(bench.automaton)[1].states_after
            pin.update(
                states=static.states,
                edges=static.edges,
                subgraphs=static.subgraph_count,
                compressed_states=compressed,
            )
        rows[row_slug(row.name)] = pin
    return rows


def load_pins(workload: Workload, seed: int = DEFAULT_SEED, path: Path = PINS_PATH) -> dict | None:
    """The pinned expected outputs of ``workload`` at ``seed``; ``None`` if unpinned."""
    rows = json.loads(path.read_text()).get(workload.name, {}).get(str(seed))
    if rows is None:
        return None
    for row in workload.rows:
        pin = rows[row_slug(row.name)]
        if (pin["scale"], pin["limit"]) != (row.scale, row.limit):
            raise ValueError(
                f"pins for {workload.name}/{row.name} were made at scale "
                f"{pin['scale']}, limit {pin['limit']}; re-pin with --write-pins"
            )
    return rows


_CHECKED = {
    "summary": ("states", "edges", "subgraphs", "compressed_states"),
    "scan.cold": ("reports", "active_sum"),
    "scan.warm": ("digest", "reports", "active_sum"),
    "feed": ("digest", "reports"),
    "dfa.cold": ("digest", "reports"),
    "dfa.warm": ("digest", "reports"),
}


def check_pass(res: PassResult, expected: dict) -> dict[tuple[str, str], str]:
    """Failed operations of one pass: ``(row, op) -> reason``."""
    failures = dict(res.errors)
    for key, output in res.outputs.items():
        slug, op = key
        want = expected.get(slug)
        if want is None:
            failures[key] = "no expected output"
            continue
        diff = [f for f in _CHECKED[op] if output[f] != want[f]]
        if diff:
            failures[key] = "mismatch in " + ", ".join(
                f"{f} (got {output[f]!r}, want {want[f]!r})" for f in diff
            )
    return failures


# -- metrics -------------------------------------------------------------------


def _row_medians(passes: list[PassResult], kind: str) -> dict[str, float]:
    """Each row's median time over all its ``kind`` samples in the run."""
    times: dict[str, list[float]] = defaultdict(list)
    for p in passes:
        for (k, slug), seconds in p.samples.items():
            if k == kind:
                times[slug].extend(seconds)
    return {slug: statistics.median(v) for slug, v in times.items()}


def _ksym_per_s(passes: list[PassResult], kind: str) -> float:
    """Total symbols over total seconds of every ``kind`` scan in ``passes``."""
    symbols = seconds = 0.0
    for p in passes:
        for (k, slug), times in p.samples.items():
            if k == kind:
                symbols += p.symbols[slug] * len(times)
                seconds += sum(times)
    return symbols / seconds / 1e3 if seconds else 0.0


def _geomean(values) -> float:
    """Geometric mean; 0.0 when every operation that measures it failed."""
    values = list(values)
    return statistics.geometric_mean(values) if values else 0.0


#: The calls that make up ``setup_s``: build, lint and engine compile.
SETUP_CALLS = frozenset(
    {"benchmarks.build_benchmark", "analysis.lint_benchmark", "engines.compile.auto",
     "engines.compile.dfa"}
)  # fmt: skip


def program_s(res: PassResult, names: frozenset[str] | None = None) -> float:
    """Seconds one pass spent in calls into the program, at the reference host
    speed; ``names`` restricts the sum to those calls."""
    return sum(s for (_, name, _), s in res.calls.items() if names is None or name in names)


def end_to_end(passes: list[PassResult], attempted: int, failed: int, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of an untraced run: medians over its passes."""
    med = statistics.median
    values = {
        "total_s": (med(program_s(p) for p in passes), "s"),
        "setup_s": (med(program_s(p, SETUP_CALLS) for p in passes), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _all(res: PassResult, kind: str) -> list[float]:
    """Every ``kind`` sample of one pass, over all rows."""
    return [t for (k, _), ts in res.samples.items() if k == kind for t in ts]


def pass_layers(res: PassResult, spans: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced pass, from its spans and telemetry."""
    totals = defaultdict(float)
    for span in spans:
        totals[span["name"]] += span["end"] - span["start"]
    counters = res.telemetry_snapshot["counters"]
    bitset_symbols = counters.get("engine.symbols.bitset", 0)
    memo = counters.get("lazydfa.memo_computes", 0)
    dfa_ksym = sum(res.symbols[slug] for kind, slug in res.samples if kind == "dfa_cold") / 1e3
    feeds = _all(res, "feed")
    out = {
        "benchmarks.build_s": totals["benchmarks.build_benchmark"],
        "benchmarks.states": res.states,
        "benchmarks.input_symbols": res.input_symbols,
        "analysis.lint_s": totals["analysis.lint_benchmark"],
        "transforms.prefix_merge_s": totals["transforms.merge_common_prefixes"],
        "transforms.states_removed_frac": (
            1 - res.merge_after / res.merge_before if res.merge_before else 0.0
        ),
        "stats.static_s": totals["stats.compute_static_stats"],
        "stats.dynamic_s": totals["stats.measure_dynamic"],
        "engines.cache_hit_ratio": res.cache_hits / res.cache_lookups if res.cache_lookups else 0.0,
        "engines.scan_s.dfa_cold": sum(_all(res, "dfa_cold")),
        "engines.scan_s.dfa_warm": sum(_all(res, "dfa_warm")),
        "engines.matched_per_symbol.bitset": (
            counters.get("engine.matched_states.bitset", 0) / bitset_symbols
            if bitset_symbols
            else 0.0
        ),
        "engines.scan_ksym_per_s": _ksym_per_s([res], "scan"),
        "engines.dfa_cold_ksym_per_s": _ksym_per_s([res], "dfa_cold"),
        "engines.dfa_warm_ksym_per_s": _ksym_per_s([res], "dfa_warm"),
        "engines.feed_p50_us": _geomean(_row_medians([res], "feed").values()) * 1e6,
        "engines.feeds": len(feeds),
        "engines.feed_p90_us": (
            statistics.quantiles(feeds, n=10, method="inclusive")[-1] * 1e6
            if len(feeds) > 1
            else 0.0
        ),
        "engines.reports": sum(v for k, v in counters.items() if k.startswith("engine.reports.")),
        "lazydfa.memo_computes": memo,
        "lazydfa.computes_per_ksym": memo / dfa_ksym if dfa_ksym else 0.0,
        "lazydfa.dfa_states": counters.get("lazydfa.dfa_states", 0),
        "lazydfa.promotions": counters.get("lazydfa.promotions", 0),
        "resilience.events": sum(v for k, v in counters.items() if k.startswith("resilience.")),
    }
    for label in ("bitset", "dfa", "vector"):
        out[f"engines.compile_s.{label}"] = res.compile_s.get(label, 0.0)
    for label, slugs in SLICED_ROWS.items():
        out[f"engines.scan_s.{label}"] = res.engine_scan_s.get(label, 0.0)
        out[f"engines.feed_s.{label}"] = res.feed_s.get(label, 0.0)
        for slug in slugs:
            out[f"engines.scan_s.{label}.{slug}"] = res.engine_scan_s.get(f"{label}.{slug}", 0.0)
    out["stats.active_set_sum"] = 0  # filled from the checked outputs below
    for (slug, op), output in res.outputs.items():
        if op == "scan.warm":
            out["stats.active_set_sum"] += output["active_sum"]
    selfs = self_times(spans)
    for layer in ("benchmarks", "analysis", "transforms", "stats", "engines", "telemetry"):
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return out


# -- the run -------------------------------------------------------------------


@dataclass
class RunOutcome:
    passes: list[PassResult]
    traced: list[PassResult]
    attempted: int
    failed: int
    failures: dict[str, str]
    metrics: dict
    spans: list[dict]
    feed_samples: int
    #: kind -> row -> median seconds, and row -> symbols: where the time went.
    row_medians: dict[str, dict[str, float]]
    symbols: dict[str, int]


def _one_pass(workload, seed, rec, tracing) -> PassResult:
    gc.collect()
    rec.probe()
    first_span, first_call, first_probe = len(rec.spans), len(rec.calls), len(rec.probes)
    rec.tracing = tracing
    if tracing:
        telemetry.reset()
        telemetry.enable()
    res = _Pass(workload, seed, rec).run()
    rec.probe()
    seen: dict[tuple[str | None, str], int] = defaultdict(int)
    for index in range(first_call, len(rec.calls)):
        name, row = rec.calls[index][:2]
        if not name.startswith("harness."):
            res.calls[row, name, seen[row, name]] = rec.normalised(index)
            seen[row, name] += 1
    probes = rec.probes[first_probe - 1 :]
    res.host_slowdown = statistics.mean(probes) / REFERENCE_S
    if tracing:
        with rec.call("telemetry.snapshot"):
            res.telemetry_snapshot = telemetry.snapshot()
        telemetry.disable()
        res.layers = pass_layers(res, rec.spans[first_span:])
    rec.tracing = False
    return res


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    expected: dict | None = None,
    min_passes: int = 2,
    log=sys.stderr,
) -> RunOutcome:
    """Run passes for about ``seconds`` (at least ``min_passes``), then check them.

    The number of passes is ``round(seconds / workload.pass_s)``, fixed
    before the first one starts, so a slow host lengthens the run rather
    than leaving the estimate fewer repeats.  Untraced, every pass is timed
    and ``total_s`` and ``setup_s`` are medians over passes of the time
    spent in program calls at the reference host speed (:func:`program_s`).
    Traced, untraced and traced passes alternate; the
    per-layer metrics are medians over the traced ones and
    ``telemetry.overhead_frac`` compares the two kinds.  ``expected``
    overrides the pins (tests use it); otherwise a pinned seed reads
    ``pins.json`` and any other seed runs :func:`compute_pins` after the
    timing.
    """
    rec = Recorder()
    passes: list[PassResult] = []
    traced: list[PassResult] = []
    for _ in range(max(min_passes, round(seconds / workload.pass_s))):
        res = _one_pass(workload, seed, rec, False)
        passes.append(res)
        if trace:
            traced.append(_one_pass(workload, seed, rec, True))
        print(
            f"pass {len(passes)}: wall {res.total_s:.3f} s, host {res.host_slowdown:.2f}x "
            f"slower than reference; at reference speed total {program_s(res):.3f} s, "
            f"setup {program_s(res, SETUP_CALLS):.3f} s"
            + (f"; traced {traced[-1].total_s:.3f} s" if trace else ""),
            file=log,
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if expected is None:
        expected = load_pins(workload, seed)
    if expected is None:
        expected = compute_pins(workload, seed)
    failures: dict[str, str] = {}
    attempted = 0
    for index, res in enumerate(passes + traced):
        attempted += len(res.ops)
        for (slug, op), reason in check_pass(res, expected).items():
            failures[f"pass{index}/{slug}/{op}"] = reason
    failed = len(failures)

    if trace:
        metrics = _layer_metrics(passes, traced, attempted, failed)
    else:
        metrics = end_to_end(passes, attempted, failed, peak_rss_mb)
    return RunOutcome(
        passes=passes,
        traced=traced,
        attempted=attempted,
        failed=failed,
        failures=failures,
        metrics=metrics,
        spans=rec.spans,
        feed_samples=sum(len(_all(p, "feed")) for p in passes),
        row_medians={k: _row_medians(passes, k) for k in ("scan", "feed", "dfa_cold", "dfa_warm")},
        symbols=passes[0].symbols,
    )


_LAYER_UNITS = {
    "benchmarks.states": "count",
    "benchmarks.input_symbols": "count",
    "stats.active_set_sum": "count",
    "engines.feeds": "count",
    "engines.feed_p90_us": "us",
    "engines.feed_p50_us": "us",
    "engines.scan_ksym_per_s": "ksym/s",
    "engines.dfa_cold_ksym_per_s": "ksym/s",
    "engines.dfa_warm_ksym_per_s": "ksym/s",
    "engines.reports": "count",
    "engines.cache_hit_ratio": "fraction",
    "engines.matched_per_symbol.bitset": "count/sym",
    "transforms.states_removed_frac": "fraction",
    "lazydfa.memo_computes": "count",
    "lazydfa.computes_per_ksym": "count/ksym",
    "lazydfa.dfa_states": "count",
    "lazydfa.promotions": "count",
    "resilience.events": "count",
    "telemetry.overhead_frac": "fraction",
    "ops.attempted": "count",
    "ops.failed": "count",
}


def layer_unit(name: str) -> str:
    return _LAYER_UNITS.get(name, "s")


def _layer_metrics(passes, traced, attempted, failed) -> dict:
    med = statistics.median
    names = traced[0].layers.keys()
    values = {name: med(p.layers[name] for p in traced) for name in names}
    values["telemetry.overhead_frac"] = (
        med(program_s(p) for p in traced) / med(program_s(p) for p in passes) - 1
    )
    values["ops.attempted"] = attempted
    values["ops.failed"] = failed
    return {name: {"value": v, "unit": layer_unit(name)} for name, v in sorted(values.items())}
