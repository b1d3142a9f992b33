"""Dynamic (execution-derived) benchmark statistics.

The paper's key dynamic metric is the *active set*: the average number of
states attempting a match per input symbol, "often used as a proxy for
performance on sequential, memory-based architectures such as CPUs"
(Section IV).  Report rates drive the Section V Snort experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.core.automaton import Automaton
from repro.engines.base import Engine
from repro.engines.cache import auto_engine

__all__ = ["DynamicStats", "measure_dynamic"]


@dataclass(frozen=True)
class DynamicStats:
    """Execution statistics of an automaton over a standard input."""

    symbols: int
    mean_active_set: float
    report_count: int
    reporting_symbols: int

    @property
    def reports_per_symbol(self) -> float:
        if self.symbols == 0:
            return 0.0
        return self.report_count / self.symbols

    @property
    def reporting_byte_fraction(self) -> float:
        """Fraction of input bytes on which >= 1 report fired.

        Section V quotes ANMLZoo Snort reporting on "99.5% of all input
        bytes"; this is that metric.
        """
        if self.symbols == 0:
            return 0.0
        return self.reporting_symbols / self.symbols

    @property
    def reports_per_million(self) -> float:
        """Report rate scaled to the paper's Figure 1 units."""
        return self.reports_per_symbol * 1_000_000


def measure_dynamic(
    automaton: Automaton,
    data: bytes,
    *,
    engine: Engine | None = None,
) -> DynamicStats:
    """Run ``automaton`` over ``data`` and summarise dynamic behaviour."""
    if engine is None:
        # The bitset engine, compiled once per structure via the engine
        # cache, so Table I sweeps do not recompile per metric.
        engine = auto_engine(automaton)
    with telemetry.span("stats.measure_dynamic"):
        result = engine.run(data, record_active=True)
    return DynamicStats(
        symbols=result.cycles,
        mean_active_set=result.mean_active_set,
        report_count=result.report_count,
        reporting_symbols=len(result.reporting_cycles()),
    )
