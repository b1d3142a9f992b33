"""Run one workload N times with different seeds and report how steady each metric is.

    python3 azbench/steady.py --workload dense-mesh --runs 10 --sets 2

For every end-to-end metric it prints the median, the quartiles and the
spread (Q3 - Q1 over the median), and flags a metric whose spread exceeds
its bound in ``BENCHMARK.json``, or a third of it (the target when tuning).
With ``--sets 2`` or more it repeats the same seeds and also flags a metric
whose median in a later set is worse than in the first by more than its
bound.  It exits with 1 if any operation failed or any metric was flagged
as exceeding its bound.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from azbench.runner import bench_spec, quartiles, run_once  # noqa: E402


def _report(values: dict[str, list[float]], bounds: dict[str, float]) -> tuple[int, dict]:
    """Print one set's table; return (metrics over their bound, medians)."""
    print(f"{'metric':24s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} {'bound':>6s}")
    unsteady, medians = 0, {}
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        medians[name] = med
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "  EXCEEDS BOUND"
            unsteady += 1
        elif bound is not None and spread > bound / 3:
            flag = "  above a third of bound"
        print(f"{name:24s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
              f"{bound if bound is not None else '-':>6}{flag}")  # fmt: skip
    return unsteady, medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, help="sets of runs over the same seeds")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = bench_spec(ROOT)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}

    unsteady = failed = 0
    first: dict[str, float] = {}
    for s in range(args.sets):
        values: dict[str, list[float]] = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(ROOT, args.workload, seed, seconds)
            failed += result["failed"]
            print(f"set {s + 1} run {i + 1}/{args.runs} seed {seed}: "
                  f"correct={result['correct']}", file=sys.stderr)  # fmt: skip
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{args.workload} set {s + 1}: {args.runs} runs, {failed} failed operations so far")
        over, medians = _report(values, bounds)
        unsteady += over
        if s == 0:
            first = medians
            continue
        for name, med in medians.items():
            if not first[name] or name not in bounds:
                continue
            worse = (med - first[name]) / first[name] * (1 if lower[name] else -1)
            drift_flag = ""
            if worse > bounds[name]:
                drift_flag = "  WORSE THAN FIRST SET BY MORE THAN BOUND"
                unsteady += 1
            print(f"  {name:22s} median vs set 1: {worse:+.3f} of it worse{drift_flag}")
    return 1 if unsteady or failed else 0


if __name__ == "__main__":
    sys.exit(main())
