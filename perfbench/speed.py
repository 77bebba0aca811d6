"""Times in reference seconds, steady on a machine whose CPU speed drifts.

On a shared machine the speed available to one thread drifts with what other
tenants run: a fixed loop of pure-Python work was seen to take anywhere from
1x to 2x its fastest time, in phases lasting from seconds to minutes.  Raw
wall times of identical passes then spread by 30% from run to run, more than
any useful regression bound.

While a Speedometer is active, a SIGALRM handler runs a fixed pure-Python
probe every PERIOD_S and times it.  Each stretch of wall time between probes
is converted at the speed the probe just measured, and the sum is the time
the measured code would have taken at the speed where the probe takes
PROBE_REF_S.  A change that makes the package do more work raises this time
exactly as it raises wall time; a drift of the machine's speed moves the
probe too and cancels out.  The probes themselves are excluded.

The probe runs twice and only the second run is timed: the first one, right
after the interrupted code, finds the caches cold and was seen to take about
6% longer, an amount that would depend on the package's memory footprint.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
# about the probe's time in a fast phase of the 2-core Xeon the bounds were set on
PROBE_REF_S = 3e-4


def probe() -> float:
    """Seconds taken by a fixed mix of Fraction, tuple and dict work."""
    start = time.perf_counter()
    acc = Fraction(0)
    seen: dict = {}
    for i in range(1, 120):
        acc += Fraction(i % 97, i)
        key = (i % 61, i % 47)
        seen[key] = seen.get(key, 0) + i
    return time.perf_counter() - start


class Speedometer:
    """Context manager: `ref_s` is the reference time of the code it wrapped."""

    def __enter__(self):
        self.ref_s = 0.0
        self.probes = []
        self._last = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, signum=None, frame=None) -> None:
        stretch = time.perf_counter() - self._last
        probe()
        took = probe()
        self.probes.append(took)
        self.ref_s += stretch * PROBE_REF_S / took
        self._last = time.perf_counter()

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()


def reference_seconds(wall_s: float, probes: list) -> float:
    """Convert a wall time at the median speed of probes taken next to it."""
    return wall_s * PROBE_REF_S / sorted(probes)[len(probes) // 2]
