"""Host speed probe: scale measured times to a reference host speed.

A shared host can run the same code at half speed for minutes at a time,
and its speed also swings from one tenth of a second to the next.  While
the benchmark runs, `SpeedProbe` times a fixed pure-Python kernel (exact
rational elimination, the kind of work corrpoly does) from SIGALRM every
`INTERVAL_S`.  `scaled(start, end)` turns a measured interval into
reference seconds: the interval less the probe time inside it, times
`REFERENCE_S` over the median probe time inside the interval (or, for an
interval holding no probe, the mean of the probes on either side).
Without it the 10-seed spread of raw `op_p50_ms` on `vertex-ladder` was
0.37 on a 2-vCPU host whose probe ran about 1.9x slower than its fastest,
against 0.03 scaled; `baseline.json` records the raw spreads of every
workload beside the scaled ones.
`REFERENCE_S` is the kernel's time on the host the baseline was recorded
on (2 vCPUs, x86_64, CPython 3.11.7) at its fastest, so scaled times read
as that host's unloaded times.  The scale changes no code path of corrpoly
and is the same for every commit measured.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from array import array
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.025
REFERENCE_S = 0.0016

_MATRIX = tuple(
    tuple(Fraction((7 * i + 3 * j) % 11 + 1, (i + j) % 5 + 1) for j in range(9))
    for i in range(8)
)


def kernel() -> list[list[Fraction]]:
    """Gauss-Jordan elimination of a fixed 8x9 rational matrix."""
    m = [list(row) for row in _MATRIX]
    for c in range(8):
        pivot = m[c][c]
        m[c] = [x / pivot for x in m[c]]
        for i in range(8):
            if i != c:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return m


class SpeedProbe:
    """Context manager: times `kernel` every `INTERVAL_S` until exit."""

    def __init__(self):
        self.at = array("d")  # probe start times, ascending
        self.took = array("d")

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        # No collection inside the kernel: its time must not depend on how
        # many objects the measured program keeps alive.
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel()
        self.took.append(perf_counter() - t0)
        self.at.append(t0)
        if collecting:
            gc.enable()

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the work done between `start` and `end`."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        inside = self.took[lo:hi]
        if inside:
            probe = statistics.median(inside)
        else:
            around = self.took[max(lo - 1, 0):lo + 1]
            probe = sum(around) / len(around) if around else REFERENCE_S
        return (end - start - sum(inside)) * REFERENCE_S / probe

    def slowdown(self) -> float:
        """Median probe time over the reference: how loaded the host was."""
        return statistics.median(self.took) / REFERENCE_S if self.took else 1.0
