"""The four benchmark workloads: which Table I rows, at what scale, scanned how.

Every workload is a closed loop with one caller: each row is built, set up
and scanned in turn, and each scan starts after the previous one finishes.
A *pass* is one walk over a workload's rows; a run makes as many passes as
fill its time on a quiet host.  Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.benchmarks import BENCHMARK_NAMES

__all__ = ["Row", "Workload", "WORKLOADS", "MTU", "row_slug"]

#: Chunk size for the streamed ``feed`` mode: one Ethernet MTU, the unit a
#: network IDS hands its matcher.
MTU = 1500

SCAN = "scan"  # measure_dynamic (first scan), then a warm whole-buffer Engine.run
FEED = "feed"  # the scan engine's stream(), fed MTU-sized chunks
DFA = "dfa"  # a fresh LazyDFAEngine: one cold scan, then warm scans


@dataclass(frozen=True)
class Row:
    """One Table I row as a workload uses it.

    ``limit`` caps the scanned input at its first ``limit`` symbols (``None``
    scans the whole standard input); every mode of the row scans the same
    slice, so one pinned expected output checks all of them.  The warm
    whole-buffer scan and the feed run ``repeats`` times, so that rows whose
    scans take milliseconds still add up to a time well above scheduling
    noise.
    """

    name: str
    scale: float
    limit: int | None = None
    modes: tuple[str, ...] = (SCAN,)
    repeats: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    rows: tuple[Row, ...]
    #: Prefix merge and static statistics per row: the Table I columns.
    summarize: bool = False
    #: Length of one pass on a quiet 2-vCPU Xeon host, in seconds.  A run of
    #: ``seconds`` makes ``round(seconds / pass_s)`` passes (at least two),
    #: a number fixed by the workload and ``seconds`` alone, so that the
    #: medians of every run rest on equally many passes.
    pass_s: float = 1.0


def row_slug(name: str) -> str:
    """``"Levenshtein 37x10"`` -> ``"levenshtein-37x10"`` (metric-name safe)."""
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


_ALL_MODES = (SCAN, FEED, DFA)

#: Dense meshes: hundreds to thousands of states active per symbol, so each
#: scanned symbol costs the bitset engine far more than on the rule sets.
#: The scans take about half of a pass; building and compiling Levenshtein
#: 37x10 and Random Forest C take most of the rest.  Slices are cut so that
#: a pass lasts about 6 s and an 18 s run holds three.  The lazy DFA and the
#: chunked feed run on one row each, so their per-layer metrics exist here
#: too.
DENSE_MESH = Workload(
    "dense-mesh",
    (
        Row("Hamming 31x10", 0.01, 1500, (SCAN, DFA)),
        Row("Levenshtein 24x5", 0.01, 700),
        Row("Levenshtein 37x10", 0.01, 200),
        Row("CRISPR CasOT", 0.01, 1000),
        Row("Random Forest C", 0.01),
        Row("Entity Resolution", 0.01, 9000, (SCAN, FEED)),
    ),
    pass_s=5.5,
)

#: Rule sets with few matching states per symbol, every row under the
#: bitset cap, each scanned whole-buffer, fed in MTU chunks and by a cold
#: then warm lazy DFA.  Slices are whole multiples of the MTU, so every feed
#: is a full chunk; the slowest rows to scan cold or to check against the
#: reference are cut shortest.
SPARSE_RULES = Workload(
    "sparse-rules",
    tuple(
        Row(name, 0.05, limit, _ALL_MODES, repeats=3)
        for name, limit in (
            ("Snort", 12_000),
            ("ClamAV", 1500),
            ("Protomata", 4500),
            ("Brill", 15_000),
            ("YARA", 3000),
            ("YARA Wide", 6000),
            ("File Carving", 1500),
        )
    ),
    pass_s=6.5,
)

#: Rows whose input (up to the given length) is also streamed and run
#: through the lazy DFA; every other row scans a short slice only.
_SUITE_STREAM_ROWS = {"Snort": 1500, "Protomata": 1500, "Brill": 9000, "YARA": 6000}
_SUITE_SLICE = 128

#: All 25 Table I rows, built and summarised the way ``repro table1`` does;
#: set-up layers (generators, lint, prefix merge, compile) carry the pass.
SUITE_BUILD = Workload(
    "suite-build",
    tuple(
        Row(name, 0.01, _SUITE_STREAM_ROWS[name], _ALL_MODES)
        if name in _SUITE_STREAM_ROWS
        else Row(name, 0.01, _SUITE_SLICE)
        for name in BENCHMARK_NAMES
    ),
    summarize=True,
    pass_s=10.5,
)

#: ClamAV above BitsetEngine's 65 536-state cap (72 067 states at 0.1), so
#: ``auto_engine`` falls back to VectorEngine.  No lazy DFA here: its cold
#: scan of this one short input took 0.8 to 2.1 s depending on the seed,
#: enough to swing ``total_s`` by 15 %.
ABOVE_CAP = Workload("above-cap", (Row("ClamAV", 0.1, 1500, (SCAN, FEED)),), pass_s=5.2)

WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (DENSE_MESH, SPARSE_RULES, SUITE_BUILD, ABOVE_CAP)
}
