"""Contention correction for the benchmark's timings.

On a small shared VM the speed of the same code drifts by 1.0-1.6x over
seconds as neighbours load the host, which swamps a 10 % regression.  The
benchmark therefore times a fixed calibration unit (pure Python, no package
code, object and dict work like the engine's) every 10 ms of CPU time from
a SIGPROF timer, and scales each job's time to the speed at which the unit
takes ``D_REF_S``:

    corrected = (measured - time spent in units) * mean(D_REF_S / unit)

The mean runs over the units timed during the job, so it is the job's
average slowdown.  Child processes whose wall time is measured (set-up and
`isl` processes) run the same sampler from start-up and hand their unit
timings to the driver.  Raw times are recorded next to the corrected ones.
"""

import json
import signal
import time
from dataclasses import dataclass

# duration of one unit on an idle 2.1 GHz Xeon vCPU; it only sets the scale
D_REF_S = 140e-6
SAMPLE_INTERVAL_S = 0.01
MIN_SAMPLES = 5


@dataclass(frozen=True)
class _Pair:
    a: int
    b: int


def unit():
    acc = {}
    for i in range(120):
        p = _Pair(i % 7, i % 5)
        q = _Pair(i % 5, i % 7)
        acc[(p.a * q.b) % 11] = p == q
    return len(acc)


def time_unit():
    """(start, seconds) of one calibration unit."""
    t0 = time.perf_counter()
    unit()
    return t0, time.perf_counter() - t0


class Sampler:
    """Times one unit every SAMPLE_INTERVAL_S of process CPU time."""

    def __init__(self):
        self.samples = []

    def _handler(self, signum, frame):
        self.samples.append(time_unit())

    def start(self):
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def dump(self, path):
        """Write the unit timings as JSON [[start, seconds], ...]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.samples, fh)


def correct(samples, t0, t1):
    """Corrected seconds of the interval [t0, t1), or None without samples.

    ``samples`` are (start, seconds) unit timings, from this process or from
    a child (perf_counter is one system-wide monotonic clock).  Short
    intervals borrow samples from around them until MIN_SAMPLES are in.
    """
    import statistics  # here, so child processes do not pay for it

    inside = [(s, d) for s, d in samples if t0 <= s < t1]
    spent = sum(d for _, d in inside)
    pick, pad = inside, 0.0
    while len(pick) < MIN_SAMPLES and len(pick) < len(samples) and pad < 60.0:
        pad += 0.1
        pick = [(s, d) for s, d in samples if t0 - pad <= s < t1 + pad]
    if not pick:
        return None
    speed = statistics.fmean(D_REF_S / d for _, d in pick)
    return (t1 - t0 - spent) * speed
