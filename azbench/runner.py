"""Shared helpers for the steadiness and compare tools: run the benchmark, summarise."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

__all__ = ["bench_spec", "quartiles", "run_once"]


def bench_spec(root: Path) -> dict:
    """``BENCHMARK.json`` of the checkout at ``root``."""
    return json.loads((root / "BENCHMARK.json").read_text())


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """Run the checkout's benchmark once; return its result line."""
    spec = bench_spec(root)
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode} in {root}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
