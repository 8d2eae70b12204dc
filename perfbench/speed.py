"""Machine-speed references for the benchmark's end-to-end times.

Shared machines change speed by tens of percent within seconds, because
other tenants load the same cores; a run measured in a slow stretch reads
slow whatever the code does. So the worker times a fixed pure-Python
reference loop while operations run, and each operation's time is also
reported at reference speed:

    reference seconds = measured seconds * REFERENCE_S / loop seconds

The package's hot path is interpreted Python too (the adaptive stepper's
loop and the right-hand side), so both slow down together and the ratio
stays steady. The loop runs from a timer on this process's own CPU time, so
it runs only while the process computes: it does not take a core from a
worker pool the process waits on. Samples taken only between operations did
not track the speed: on the 2-core baseline machine, 18 identical 2.4 s
sweeps spread by 15 % raw, 13 % scaled by loops at their two ends, and 5 %
scaled by loops inside them.

Set-up is mostly loading modules, which the loop does not track either. So
each set-up probe is paired with a reference probe, a fresh interpreter that
imports the third-party modules the package imported at the baseline
commit, and

    set-up reference seconds = set-up seconds * SETUP_REFERENCE_S / reference probe seconds

On the baseline machine, over nine runs of seven pairs, raw set-up spread by
6 %, loop-scaled set-up by 10 % and this ratio by 3.5 %. The reference probe
does not import the package, so set-up work the package adds or removes
still shows. Raw seconds are reported next to all of these.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager

# Seconds of one reference_loop() on the machine the baseline was recorded on
# (2 cores, x86_64, Python 3.11): 40 back-to-back loops took 0.0144 s median,
# and the mean over a run ranged from 0.012 to 0.019 s. So reference seconds
# are close to that machine's seconds; the value only sets the scale.
REFERENCE_S = 0.0145

# An operation's loop seconds are the mean of the samples taken inside it,
# or of the last MIN_SAMPLES samples when it holds fewer (a short operation,
# or one that waits on other processes).
MIN_SAMPLES = 5

# Seconds of this process's CPU time between samples.
PERIOD_S = 0.1

SETUP_REFERENCE = "import numpy, scipy.integrate; print('ready', flush=True)"

# Seconds of the reference probe on the baseline machine: set-up probes took
# 0.77 s median there, 1.09 times the reference probe. Again only a scale.
SETUP_REFERENCE_S = 0.7


def reference_loop() -> complex:
    """Complex and float arithmetic and calls in the interpreter, like an RHS."""
    s = 0j
    exp = math.exp
    for i in range(30000):
        x = i * 1e-4
        s += complex(exp(-x * x), x) * 1j - s * 1e-6
    return s


class Meter:
    """Reference-loop samples of one run, and a clock that leaves them out."""

    def __init__(self):
        self.samples: list[float] = []
        self.sampling_s = 0.0
        for _ in range(MIN_SAMPLES):
            self._sample()

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_loop()
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        self.sampling_s += seconds

    def clock(self) -> float:
        """``time.perf_counter()`` minus the time spent sampling."""
        return time.perf_counter() - self.sampling_s

    @contextmanager
    def operation(self):
        """Samples inside the block; yields a dict whose ``loop_s`` is set
        when the block ends. Python runs the timer's handler on the main
        thread between bytecodes."""
        out: dict[str, float] = {}
        first = len(self.samples)
        previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)
        try:
            yield out
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
            signal.signal(signal.SIGVTALRM, previous)
        first = min(first, len(self.samples) - MIN_SAMPLES)
        out["loop_s"] = statistics.mean(self.samples[first:])
