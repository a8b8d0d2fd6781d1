"""The machine-speed reference behind the timed end-to-end metrics.

The benchmark runs on a few cores of a shared host whose speed drifts.  On
a 2-vCPU virtual machine, a fixed loop of interpreter work took anywhere
from 0.10 s to 0.18 s, in CPU time as much as in wall time, and the slow
spells lasted from seconds to minutes.  Raw job times of two runs of the
same code therefore differ by more than the changes the benchmark has to
resolve.

So the timed metrics are reported at a reference speed.  Between jobs the
benchmark times ``reference()``, a fixed loop of pure-Python work that
calls no engine code, and scales each job's wall time by

    REF_S / median(reference times from HALO_S before the job's start
                   to HALO_S after its end)

A job that takes 120 ms while the reference loop takes its nominal REF_S
counts as 120 ms; in a spell where everything runs 1.5x slower, a job that
takes 180 ms counts as 120 ms too.  The engine's own speed is not in the
reference, so a faster engine shows in full.

Start-up time is scaled the same way, by a reference start: a fresh
interpreter that imports numpy and scipy (REF_START_ARGV), run just before
each fresh start of the engine and taken at its nominal REF_START_S.
"""

import bisect
import gc
import statistics
import time

# nominal seconds of one reference() call; the unit the scaled times are in
REF_S = 0.004
# reference samples this far around a job set its speed
HALO_S = 0.5


def reference():
    """Fixed interpreter work, about REF_S seconds: a loop of small-integer
    arithmetic.  Timed between jobs, it followed the host's slow spells
    more closely than Fraction elimination or dict and JSON work did: on
    the 2-vCPU machine above, in 10-second windows of hodge jobs, the scaled
    throughput spread 0.03 with this loop and 0.08 with those."""
    total = 0
    for i in range(40000):
        total += i * i % 7
    return total


# a fresh interpreter that imports only numpy and scipy.linalg, the engine's
# dependencies: the reference for the start-up time of a CLI job, and its
# nominal seconds.  Interpreter-only starts do not follow the host's slow
# spells in loading these extension modules, which are most of a job's
# start-up.  The reference does not change when the engine imports less.
REF_START_ARGV = ["-c", "import numpy, scipy.linalg"]
REF_START_S = 0.5


class Speed:
    """Timed reference samples along a run, by perf_counter end time."""

    def __init__(self):
        self.ends, self.secs = [], []

    def sample(self, repeat=1):
        gc.disable()  # a collection of the job's garbage is not speed
        try:
            for _ in range(repeat):
                start = time.perf_counter()
                reference()
                end = time.perf_counter()
                self.ends.append(end)
                self.secs.append(end - start)
        finally:
            gc.enable()

    def scale(self, start, end):
        """REF_S over the median reference time around [start, end]."""
        lo = bisect.bisect_left(self.ends, start - HALO_S)
        hi = bisect.bisect_right(self.ends, end + HALO_S)
        if lo == hi:  # no sample near: the nearest one
            lo = min(lo, len(self.ends) - 1)
            hi = lo + 1
        return REF_S / statistics.median(self.secs[lo:hi])

    def median_s(self):
        return statistics.median(self.secs)
