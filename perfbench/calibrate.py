"""Machine-speed calibration.

The host this benchmark was built on is shared, and its speed drifts by
10 to 30 percent within seconds to minutes.  A fixed pure-Python loop of
about 1 ms (the probe: integer arithmetic, then Fraction arithmetic, which
together tracked the workloads' slowdowns best) runs between ops at least
every PROBE_EVERY_S.  Each op's wall time is scaled by
REFERENCE_PROBE_S / (median time of the probes within WINDOW_S of the
op), so the reported times are those of a machine on which the probe
takes exactly 1 ms.  Raw wall times are reported alongside, in the
provenance line.
"""

import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

PROBE_EVERY_S = 0.02
REFERENCE_PROBE_S = 0.001
WINDOW_S = 2.0


def probe():
    """Wall time of the fixed probe loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(7000):
        acc = (acc * 31 + i) % 1000003
    x = Fraction(1, 3)
    for i in range(80):
        x = (x * Fraction(i + 1, 7) + Fraction(1, i + 2)) % 5
    return time.perf_counter() - t0


def speed_factor(durations):
    return REFERENCE_PROBE_S / statistics.median(durations)


def speed_factors(probes, starts):
    """For each op start time, the speed factor from the probes run
    within WINDOW_S of it (the nearest probe when none is)."""
    times = [t for t, _ in probes]
    factors = []
    for t in starts:
        lo, hi = bisect_left(times, t - WINDOW_S), bisect_right(times, t + WINDOW_S)
        if lo == hi:
            lo = max(0, min(lo, len(times) - 1))
            hi = lo + 1
        factors.append(speed_factor([d for _, d in probes[lo:hi]]))
    return factors
