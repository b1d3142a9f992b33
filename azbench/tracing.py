"""Spans recorded from outside the program, around calls into its layers.

Every call the harness makes into a ``repro`` module goes through
:meth:`Recorder.call`, which always times it (the timings feed the metrics)
and, while ``tracing`` is set, also keeps a span: name, start, end, parent
span and the row it belongs to.  Spans stay in memory until the run writes them out.
The layer of a span is the first dotted part of its name, which is the
``repro`` module called (``engines.run`` -> ``engines``).

Between calls, at most every :data:`PROBE_EVERY_S`, the recorder also times
:func:`azbench.hostspeed.probe`, so that each call can be reported at the
reference host speed (:meth:`Recorder.normalised`).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from azbench.hostspeed import REFERENCE_S, probe

__all__ = ["PROBE_EVERY_S", "Recorder", "self_times"]

#: Least time between two host-speed probes: a probe takes about 2 ms, so
#: probing costs at most a few per cent of a pass.
PROBE_EVERY_S = 0.05


class Recorder:
    """Times harness calls; keeps spans while ``tracing`` is true."""

    def __init__(self) -> None:
        self.tracing = False
        self.spans: list[dict] = []
        #: (name, row, seconds, index of the next probe) of every call,
        #: traced or not, in call order.
        self.calls: list[tuple[str, str | None, float, int]] = []
        #: Seconds of every host-speed probe, in order.
        self.probes: list[float] = []
        self._stack: list[int] = []
        self._probed_at = float("-inf")

    def probe(self) -> None:
        """Time one host-speed probe now."""
        self.probes.append(probe())
        self._probed_at = time.perf_counter()

    def normalised(self, index: int) -> float:
        """Seconds of call ``index`` at the reference host speed.

        The host speed of a call is the mean of the probes just before and
        just after it; the caller probes once before its first call and once
        after its last, so both exist.
        """
        _, _, seconds, after = self.calls[index]
        around = self.probes[max(after - 1, 0) : after + 1]
        return seconds * REFERENCE_S * len(around) / sum(around)

    @contextmanager
    def call(self, name: str, row: str | None = None):
        """Time the block as one call named ``name``; yields a one-slot list
        that receives the block's duration in seconds when it ends."""
        record = None
        if self.tracing:
            record = {
                "id": len(self.spans),
                "name": name,
                "row": row,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(record)
            self._stack.append(record["id"])
        out = [0.0]
        start = time.perf_counter()
        try:
            yield out
        finally:
            end = time.perf_counter()
            out[0] = end - start
            self.calls.append((name, row, out[0], len(self.probes)))
            if record is not None:
                record["start"] = start
                record["end"] = end
                self._stack.pop()
            if end - self._probed_at >= PROBE_EVERY_S:
                self.probe()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's.

    Child spans run inside their parent and one after another, so the part
    of the parent they cover is the sum of their durations.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        layer = span["name"].split(".", 1)[0]
        out[layer] += span["end"] - span["start"] - child_time[span["id"]]
    return dict(out)
