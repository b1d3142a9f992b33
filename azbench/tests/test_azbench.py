"""Tests of the benchmark itself: pins, metric names, traced-vs-untraced counts.

Run with ``python3 -m pytest azbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from azbench import harness  # noqa: E402
from azbench.hostspeed import REFERENCE_S  # noqa: E402
from azbench.tracing import Recorder, self_times  # noqa: E402
from azbench.workloads import DFA, FEED, SCAN, WORKLOADS, Row, Workload, row_slug  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A small workload with every mode, repeats, a counter row and a summary per row.
TINY = Workload(
    "tiny",
    (
        Row("Snort", 0.002, 1500, (SCAN, FEED, DFA), repeats=2),
        Row("Seq. Match 6w 6p wC", 0.002, 300),
    ),
    summarize=True,
)
SEED = 3


@pytest.fixture(scope="module")
def expected():
    return harness.compute_pins(TINY, SEED)


def _run(expected, trace=False):
    return harness.run_workload(
        TINY, SEED, 0, trace=trace, expected=expected, min_passes=1, log=io.StringIO()
    )


def test_tiny_run_is_correct(expected):
    outcome = _run(expected)
    assert outcome.failed == 0, outcome.failures
    # Two summaries, scan.cold and scan.warm per row, Snort's feed and two DFA scans.
    assert outcome.attempted == 9
    assert outcome.metrics["ok_frac"]["value"] == 1.0


def test_corrupted_pin_counts_as_failure(expected):
    corrupted = json.loads(json.dumps(expected))
    corrupted["snort"]["digest"] = "0" * 64
    outcome = _run(corrupted)
    # scan.warm, feed, dfa.cold and dfa.warm all compare the digest.
    assert outcome.failed == 4
    assert outcome.metrics["ok_frac"]["value"] < 1.0
    assert all("digest" in reason for reason in outcome.failures.values())


def test_raising_operation_counts_as_failure(expected, monkeypatch):
    def broken(automaton, data, **_):
        raise RuntimeError("injected")

    monkeypatch.setattr(harness, "measure_dynamic", broken)
    outcome = _run(expected)
    assert outcome.failed == 2  # one scan.cold per row
    assert all("injected" in reason for reason in outcome.failures.values())


def test_metric_names_are_well_formed(expected):
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    declared += [w["name"] for w in SPEC["workloads"]]
    emitted = list(_run(expected).metrics) + list(_run(expected, trace=True).metrics)
    for name in declared + emitted:
        assert NAME.fullmatch(name), name
    assert len(set(declared)) == len(declared)


def test_emitted_metrics_match_benchmark_json(expected):
    assert set(_run(expected).metrics) == {m["name"] for m in SPEC["end_to_end"]}
    traced = _run(expected, trace=True).metrics
    assert set(traced) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert traced[m["name"]]["unit"] == m["unit"], m["name"]
    assert set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_traced_and_untraced_counts_agree(expected):
    plain = _run(expected).passes[0]
    # Telemetry counts the reports of every engine scan the pass made,
    # repeated scans included.
    repeats = {row_slug(r.name): r.repeats for r in TINY.rows}
    scans = {"scan.warm": repeats, "feed": repeats}
    reports = sum(
        o["reports"] * (scans[op][slug] if op in scans else 1)
        * (harness.DFA_WARM_SCANS if op == "dfa.warm" else 1)
        for (slug, op), o in plain.outputs.items()
        if op != "summary"
    )
    active = sum(o["active_sum"] for (_, op), o in plain.outputs.items() if op == "scan.warm")
    traced = _run(expected, trace=True)
    assert traced.failed == 0
    layers = {name: m["value"] for name, m in traced.metrics.items()}
    assert layers["benchmarks.states"] == plain.states
    assert layers["stats.active_set_sum"] == active
    assert layers["engines.reports"] == reports
    assert layers["ops.failed"] == 0


def test_summary_matches_summarize_benchmark():
    """The split calls give the Table I row that ``repro table1`` computes."""
    from repro.benchmarks import build_benchmark
    from repro.stats import summarize_benchmark

    row = TINY.rows[0]
    bench = build_benchmark(row.name, scale=row.scale, seed=SEED)
    data = bench.input_data[: row.limit]
    table = summarize_benchmark(
        bench.name, bench.domain, bench.input_desc, bench.automaton, data
    )
    pin = harness.compute_pins(Workload("one", (row,), summarize=True), SEED)[row_slug(row.name)]
    assert pin["states"] == table.static.states
    assert pin["edges"] == table.static.edges
    assert pin["subgraphs"] == table.static.subgraph_count
    assert pin["compressed_states"] == table.compressed_states
    assert pin["active_sum"] == round(table.dynamic.mean_active_set * len(data))


def test_self_times_subtract_children():
    spans = [
        {"id": 0, "name": "harness.row", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "engines.run", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "stats.measure_dynamic", "parent": 0, "start": 5.0, "end": 7.0},
    ]
    assert self_times(spans) == {"harness": 5.0, "engines": 3.0, "stats": 2.0}


def test_call_time_is_scaled_by_the_probes_around_it():
    rec = Recorder()
    rec.probes = [2 * REFERENCE_S]
    rec.calls.append(("engines.run.bitset", "snort", 1.5, 1))
    rec.probes.append(4 * REFERENCE_S)
    # The host ran three times slower than the reference around the call.
    assert rec.normalised(0) == pytest.approx(0.5)


def test_program_calls_are_kept_without_harness_wrappers(expected):
    res = _run(expected).passes[0]
    assert res.calls and not any(name.startswith("harness.") for _, name, _ in res.calls)
    assert 0 < harness.program_s(res, harness.SETUP_CALLS) < harness.program_s(res)


def test_pins_match_workload_definitions():
    for workload in WORKLOADS.values():
        for seed in harness.PINNED_SEEDS:
            pins = harness.load_pins(workload, seed)
            assert set(pins) == {row_slug(r.name) for r in workload.rows}, (workload.name, seed)
        assert harness.load_pins(workload, max(harness.PINNED_SEEDS) + 1) is None


def test_unbuildable_row_gets_no_pin_and_fails(expected, monkeypatch):
    """A row whose build raises has no expected output; its operations fail."""
    real = harness.build_benchmark

    def build(name, **kwargs):
        if name == "Snort":
            raise RuntimeError("injected")
        return real(name, **kwargs)

    monkeypatch.setattr(harness, "build_benchmark", build)
    assert set(harness.compute_pins(TINY, SEED)) == {"seq-match-6w-6p-wc"}
    outcome = _run(None)
    # Snort's summary, scan.cold, scan.warm, feed, dfa.cold and dfa.warm.
    assert outcome.failed == 6
    assert all(key.split("/")[1] == "snort" for key in outcome.failures)


def test_run_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and azbench/, the run fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "azbench", tmp_path / "azbench", ignore=shutil.ignore_patterns("results"))
    cmd = [*SPEC["command"], "--workload", "dense-mesh", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
