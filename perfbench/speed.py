"""How fast the host runs Python right now, sampled while a child works.

A shared host can run this machine's CPUs up to about 2x slower for
seconds to minutes at a time, and a catalogue child lasts long enough to
span such a spell. So every setup and workload child times a fixed
pure-Python kernel (Fraction matrix products and dict inserts, the
operations the cyclotomic arithmetic is made of) at its start, on a
SIGALRM every INTERVAL_S seconds while it works, and at its end. Wall
times are then scaled to a host that runs the kernel in REFERENCE_S: the
factor is the mean of REFERENCE_S / sample, the host's speed averaged
over the child's lifetime, or over one case's run for that case's time.
The kernel is part of the benchmark, not of crystmono, so a change to the
program does not change it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1  # between samples; one sample costs about 1.5% of that
# fixed, so scaled times compare across runs and commits; it is about the
# kernel's median time on the 2-CPU x86-64 VM with Python 3.11.7 where
# perfbench/baseline.json was recorded
REFERENCE_S = 1.4e-3
_ROUNDS = 3
WINDOW_SAMPLES = 5  # fewer samples than this in a case leave it the whole child's factor

_A = tuple(tuple(Fraction(i + 2 * j + 1, j + 2) for j in range(3)) for i in range(3))
_B = tuple(tuple(Fraction(3 * i - j, i + j + 1) for j in range(3)) for i in range(3))


def _mat_mul(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(3)), Fraction(0)) for j in range(3)) for i in range(3))


def _reduce(m, p: int, q: int):
    return tuple(tuple(Fraction(x.numerator % p, x.denominator % q + 1) for x in row) for row in m)


def kernel() -> int:
    """The fixed unit of work; returns a checksum so nothing is skipped."""
    seen = {}
    m = _A
    for r in range(_ROUNDS):
        m = _reduce(_mat_mul(m, _B), 1009, 997)
        seen[m] = r
        m = _reduce(_mat_mul(_A, m), 1013, 991)
        seen.setdefault(m, r)
    return len(seen)


def time_kernel() -> float:
    """Seconds for one kernel, with the cyclic collector held off so that a
    collection of the program's heap is not charged to the host."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Probe:
    """Samples kernel times from start() to stop(); one per process."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at the sample, kernel seconds)

    def _sample(self, *_signal_args) -> None:
        self.samples.append((time.perf_counter(), time_kernel()))

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self, windows: dict) -> dict:
        """The factor over the whole process and, for each (start, end)
        perf_counter window holding at least WINDOW_SAMPLES samples, the
        factor over that window alone: the host's speed can change within
        one child, and a case's time is scaled by the speed it ran at."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        windowed = {}
        for key, (t0, t1) in windows.items():
            inside = [k for t, k in self.samples if t0 <= t <= t1]
            if len(inside) >= WINDOW_SAMPLES:
                windowed[key] = speed_factor(inside)
        return {
            "factor": speed_factor(k for _, k in self.samples),
            "samples": len(self.samples),
            "case_factor": windowed,
        }


def speed_factor(samples) -> float:
    """Mean of REFERENCE_S / sample: below 1 on a host slower than the reference."""
    return statistics.fmean(REFERENCE_S / s for s in samples)
