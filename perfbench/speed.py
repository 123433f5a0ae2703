"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared 2-core machines whose speed drifts by 20%
and more over tens of seconds while nothing else runs in the container:
a fixed pure-Python loop and a qburau op slow down together.  So every
timing is reported scaled to a reference speed: an op's time is
multiplied by REF_S / (the loop's time around it), where the loop's time
is the median of the loop runs within WINDOW_S of the op.  The loop runs
between ops, at most SAMPLE_EVERY_S apart, so every op that takes longer
than that has a loop run on each side.  The loop touches nothing of
qburau, so no change to the library can move it.
"""
from __future__ import annotations

import statistics
import time

REF_S = 0.004               # the loop's time at the reference speed
SAMPLE_EVERY_S = 0.1
WINDOW_S = 0.3
LOOP_N = 20000


def loop_time():
    """Time of one run of the fixed calibration loop."""
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(LOOP_N):
        acc = (acc * 31 + i) % 1000003
        seen[i & 1023] = (acc, i)
    return time.perf_counter() - t0


def factor(loop_times):
    """Scale factor from measured to reference-speed time."""
    return REF_S / statistics.median(loop_times)


class Speed:
    """Loop runs taken between ops, and the scale factor of each op."""

    def __init__(self):
        self._samples = []          # (perf_counter at the loop's end, time)

    def tick(self):
        """Run the loop if the last run is older than SAMPLE_EVERY_S."""
        if not self._samples or \
                time.perf_counter() - self._samples[-1][0] > SAMPLE_EVERY_S:
            dt = loop_time()
            self._samples.append((time.perf_counter(), dt))

    def factor(self, t0, t1):
        """Scale factor for an op that ran from t0 to t1; call after a
        tick() that follows the op."""
        near = [dt for t, dt in self._samples
                if t0 - WINDOW_S <= t <= t1 + WINDOW_S + dt]
        return factor(near)
