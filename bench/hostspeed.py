"""Host-speed normalisation of the benchmark's timings.

The benchmark runs on a shared host whose speed drifts by up to a factor of
two within tens of seconds, which no amount of repetition averages out.  So
a fixed kernel owned by the benchmark (pure-Python arithmetic and float
formatting plus 4x4 complex numpy products, the package's own mix) is timed
every ``PERIOD_S`` of wall time while a workload runs, from a SIGALRM handler
in the same thread.  An interval of workload time, with the handler's time
taken out, is reported in reference seconds:

    reference seconds = wall seconds * mean(REF_KERNEL_S / kernel time)

over the kernel samples taken during the interval and the ``CONTEXT``
samples before it.  That is the interval's length on a host as fast as the
one where the kernel took ``REF_KERNEL_S``: the samples are evenly spaced in
wall time, so the mean of the speed REF_KERNEL_S / kernel time weights each
stretch of the interval by its length.  (A median would drop the host's
short fast stretches, which the workload does profit from.)  Nothing in the
kernel depends on the package, so a change to the package moves reference
seconds exactly as it moves wall seconds at a fixed host speed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The kernel's median time on the host where the benchmark was defined
# (2-vCPU Intel Xeon KVM guest, Python 3.11, numpy 2.4).
REF_KERNEL_S = 2.5e-3
PERIOD_S = 0.05
CONTEXT = 4

# Set-up time is mostly loading modules and shared libraries, which the
# host's fast stretches speed up less than the kernel (about 1.3x against
# 1.7x), so set-up samples are scaled instead by the time a fresh interpreter
# takes to import numpy, REF_IMPORT_S on the same host.
IMPORT_CODE = "import time; s = time.perf_counter(); import numpy; print(time.perf_counter() - s)"
REF_IMPORT_S = 0.09

_rng = np.random.default_rng(20190311)
_A = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_V = _rng.standard_normal(4) + 0j


def kernel() -> float:
    """Fixed work: 4,000 steps of float arithmetic and formatting, 200 small products."""
    x = 0.0
    text = []
    for i in range(4000):
        x += (i * 0.5) % 7.0
        if i % 50 == 0:
            text.append(f"{x:.17g}")
    v = _V
    for _ in range(200):
        v = _A @ v * 0.25 + _V
        v = v / (np.abs(v).max() + 1.0)
    return x + float(v.real.sum())


class SpeedProbe:
    """Samples the kernel while active and converts intervals to reference seconds.

    Use as a context manager around the timed work; ``mark()`` starts an
    interval and ``since(mark)`` returns its (wall, reference) seconds.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0  # wall seconds spent in the handler so far
        self._busy = False
        self._previous = None

    def _sample(self, *_) -> None:
        if self._busy:  # a signal that lands while the kernel runs is dropped
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.paused += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> SpeedProbe:
        for _ in range(CONTEXT):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.paused, len(self.samples)

    def since(self, mark: tuple[float, float, int]) -> tuple[float, float]:
        """(wall, reference) seconds since ``mark``, the handler's time excluded."""
        now, paused, count = time.perf_counter(), self.paused, len(self.samples)
        start, start_paused, start_count = mark
        wall = (now - start) - (paused - start_paused)
        window = self.samples[max(0, start_count - CONTEXT):count]
        if not window:
            raise RuntimeError("SpeedProbe.since() needs an active probe")
        return wall, wall * statistics.fmean(REF_KERNEL_S / k for k in window)
