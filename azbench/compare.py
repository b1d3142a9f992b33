"""Compare a parent checkout with a changed one on one workload, in alternating pairs.

    python3 azbench/compare.py --parent ../parent --change . --workload dense-mesh --pairs 10

Pair i runs both checkouts with seed ``first-seed + i``; even pairs run the
parent first, odd pairs the change.  For each end-to-end metric it prints
each side's median and quartiles, the share of pairs the change won (ties
count for neither side) and a verdict:

* ``improved`` - the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's own quartile spread;
* ``regressed`` - the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` - either side's spread exceeds the bound, unless every
  run of the change beats every run of the parent;
* ``no change within bound`` - otherwise.

Both checkouts run their own ``azbench``; a change that claims a gain does
not edit the benchmark, so the two copies are the same code.
"""

from __future__ import annotations

import argparse
import filecmp
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from azbench.runner import bench_spec, quartiles, run_once  # noqa: E402


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, share of pairs won by the change) for one metric."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    won = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    spreads = [(q3 - q1) / abs(m) if m else 0.0 for q1, m, q3 in ((p1, pm, p3), (c1, cm, c3))]
    if max(spreads) > bound and not all_better:
        return "unresolved", won
    if won >= 0.9 and sign * (cm - pm) > p3 - p1:
        return "improved", won
    if sign * (cm - pm) < -bound * abs(pm):
        return "regressed", won
    return "no change within bound", won


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    parent_root, change_root = args.parent.resolve(), args.change.resolve()
    spec = bench_spec(change_root)
    same = filecmp.dircmp(parent_root / "azbench", change_root / "azbench")
    if same.diff_files:
        print(f"warning: benchmark files differ: {same.diff_files}", file=sys.stderr)

    runs: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [("parent", parent_root), ("change", change_root)]
        for side, root in order if i % 2 == 0 else order[::-1]:
            result = run_once(root, args.workload, seed, spec["run_seconds"])
            if not result["correct"]:
                print(f"{side} pair {i}: {result['failed']} failed operations", file=sys.stderr)
            for name, metric in result["metrics"].items():
                runs[side].setdefault(name, []).append(metric["value"])
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs")
    print(f"{'metric':22s} {'parent med [Q1, Q3]':>34s} {'change med [Q1, Q3]':>34s} {'won':>5s}  verdict")
    for m in spec["end_to_end"]:
        parent, change = runs["parent"][m["name"]], runs["change"][m["name"]]
        text, won = verdict(parent, change, m["better"], m["bound"])
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        print(f"{m['name']:22s} {pm:11.5g} [{p1:9.5g}, {p3:9.5g}] "
              f"{cm:11.5g} [{c1:9.5g}, {c3:9.5g}] {won:5.0%}  {text}")  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
