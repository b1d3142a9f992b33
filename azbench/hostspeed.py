"""How fast the host runs right now, from a fixed reference computation.

On a shared host the speed of one vCPU drifts by a third or more over
minutes, as other tenants come and go, and a run of tens of seconds cannot
average that out.  So the harness times :func:`probe`, a fixed computation
that calls nothing in the program, between program calls, and reports the
calls at the host speed where :func:`probe` takes :data:`REFERENCE_S`:
``seconds * REFERENCE_S / probe seconds``.  A change to the program moves
the call times and not the probe; a slower host moves both.

The probe mixes interpreter work with small numpy operations, as the
engines do, and keeps its working set in the caches; it is the fastest of a
few short repeats, so that an interrupt inside one repeat does not count.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_S", "probe"]

#: Seconds :func:`probe` takes on a quiet 2-vCPU Intel Xeon host: the host
#: speed the normalised times are reported at.  Changing it rescales every
#: reported time, so it is fixed once, like the workloads.
REFERENCE_S = 0.00063

_WORDS = np.arange(512, dtype=np.uint64)
_REPEATS = 3


def _reference_work() -> int:
    acc = 0
    table = [0] * 64
    for i in range(4500):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 63] ^= acc
    words = _WORDS
    for _ in range(36):
        acc ^= int(np.bitwise_xor(words, words >> np.uint64(1)).sum() & 0xFFFF)
    return acc + table[0]


def probe() -> float:
    """Seconds :func:`_reference_work` takes now: the fastest of a few repeats."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - start)
    return best
