"""Run one benchmark workload and print its metrics.

    python3 azbench/run.py --workload sparse-rules --seed 1 --seconds 15 --trace 0

Prints a human-readable metric table, then, as the last line of standard
output, one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a separate
traced run that reports the per-layer metrics instead and writes its spans
and telemetry snapshot next to the results log.  Every run appends one
environment-stamped line to the results log (``azbench/results/results.jsonl``
by default), so earlier results are never overwritten.

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
``--write-pins`` recomputes ``azbench/pins.json`` (the expected outputs of
the pinned seeds) with ReferenceEngine; it is needed only when a workload's
rows change.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "azbench" / "results"


def _bootstrap() -> None:
    """Import the program from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"azbench: no program to benchmark: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="dense-mesh, sparse-rules, suite-build or above-cap")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
        help="time to measure (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--results",
        default=str(RESULTS_DIR / "results.jsonl"),
        help="results log to append to ('' to skip)",
    )
    parser.add_argument("--write-pins", action="store_true", help="recompute pins.json and exit")
    args = parser.parse_args(argv)
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = _args(argv)
    _bootstrap()
    from azbench import harness
    from azbench.envstamp import environment
    from azbench.workloads import WORKLOADS

    if args.write_pins:
        names = [args.workload] if args.workload else list(WORKLOADS)
        pins = json.loads(harness.PINS_PATH.read_text()) if harness.PINS_PATH.exists() else {}
        for name in names:
            pins[name] = {}
            for seed in harness.PINNED_SEEDS:
                print(f"pinning {name} seed {seed} ...", file=sys.stderr)
                rows = harness.compute_pins(WORKLOADS[name], seed)
                if len(rows) != len(WORKLOADS[name].rows):
                    raise SystemExit(f"azbench: a row of {name} failed to build at seed {seed}")
                pins[name][str(seed)] = rows
        harness.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        return 0

    try:
        workload = WORKLOADS[args.workload]
    except KeyError:
        raise SystemExit(f"azbench: unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    started = time.time()
    outcome = harness.run_workload(workload, args.seed, args.seconds, trace=bool(args.trace))

    for key, reason in sorted(outcome.failures.items()):
        print(f"FAILED {key}: {reason}", file=sys.stderr)
    stamp = environment(ROOT, workload, args.seed)
    record = {
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "env": stamp,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(outcome.passes),
        "pass_total_s": [p.total_s for p in outcome.passes],
        "pass_host_slowdown": [p.host_slowdown for p in outcome.passes],
        "traced_passes": len(outcome.traced),
        "feed_samples": outcome.feed_samples,
        "row_symbols": outcome.symbols,
        "row_median_s": outcome.row_medians,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "metrics": outcome.metrics,
    }
    if args.results:
        results = Path(args.results)
        results.parent.mkdir(parents=True, exist_ok=True)
        if args.trace:
            trace_path = results.parent / (
                f"trace-{workload.name}-seed{args.seed}-{record['time_utc'].replace(':', '')}.json"
            )
            snapshots = [p.telemetry_snapshot for p in outcome.traced]
            slowdowns = [p.host_slowdown for p in outcome.traced]
            trace_path.write_text(
                json.dumps({"env": stamp, "spans": outcome.spans, "telemetry": snapshots,
                            "host_slowdown": slowdowns}) + "\n"  # fmt: skip
            )
            record["trace_file"] = trace_path.name
        with results.open("a") as log:
            log.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"{workload.name}  seed {args.seed}  passes {len(outcome.passes)}  "
          f"feeds {outcome.feed_samples}  ops {outcome.attempted}  failed {outcome.failed}")
    for name, metric in outcome.metrics.items():
        print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
