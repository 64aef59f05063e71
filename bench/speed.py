"""How fast the machine runs while a pass runs its jobs.

On a shared machine the CPU time of the same work swings by up to 2x
between runs a minute apart, and by tens of percent within a run; CPU
time does not leave that out.  While a pass runs its timed jobs,
``Sampler`` times ``loop``, a fixed pure-Python loop, every
``INTERVAL_S`` seconds from a SIGALRM handler, so the samples interleave
with the jobs themselves.  ``loop`` is part of the benchmark, not of
simpcrit: no change to the program changes it.  ``run.py`` multiplies
each job's time by ``REF_S`` over the median of the samples taken while
it ran and just before and after, so times are reported in reference
seconds, as if ``loop`` had taken ``REF_S``.  The handler's own CPU time
is kept in ``spent_s`` so that it can be taken out of the jobs' times.

ITIMER_REAL is used, not ITIMER_PROF: arming a process CPU timer makes
Linux read the process CPU clock at tick resolution, which would blur
the timing of millisecond queries.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.1
# CPU seconds of one ``loop`` at the speed that times are reported at.  Any
# fixed value would do; this is about what an unloaded x86-64 VM with
# CPython 3.11 takes, so reference seconds stay close to CPU seconds.
REF_S = 0.0015


def loop():
    acc = 0
    for i in range(15_000):
        acc = (acc + i * i) % 1_000_003
    return acc


class Sampler:
    """Context manager: samples ``loop`` once on entry, then every
    ``INTERVAL_S`` seconds of wall time until exit."""

    def __init__(self):
        self.samples = []  # CPU seconds of each ``loop``
        self.spent_s = 0.0  # CPU seconds spent sampling
        self._old_handler = None

    def _tick(self, signum=None, frame=None):
        c0 = time.process_time()
        loop()
        dt = time.process_time() - c0
        self.samples.append(dt)
        self.spent_s += dt

    def __enter__(self):
        self._tick()
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
