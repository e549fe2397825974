"""A fixed piece of pure-Python work that gauges how fast the CPU runs now.

On a shared host the same process can run 1.6 times slower for seconds to
minutes at a time, with CPU seconds rising as much as wall seconds, so no
clock of the process tells a slow spell apart from a slower program. The
benchmark times this work while it measures and scales an operation's wall
seconds by REFERENCE_S over the time the work took: a time scaled so reads
as it would at the speed where the work takes REFERENCE_S.
The work uses only the standard library, so no change to sheaf_census moves
it, and it mixes the kinds of work the package does: Fraction arithmetic,
small-int loops over lists, and dict and tuple building.

The CPU's speed switches between states every few hundred milliseconds, so a
long operation runs through several of them. `Sampler` therefore times one run
of the work every INTERVAL_S from a SIGALRM handler, inside the operations as
well as between them, and scales each operation by the samples taken during it.
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction

# About the fastest seconds of one run of `work()` seen over several minutes
# on the machine the benchmark was built on (2 vCPUs of a shared x86-64 host,
# CPython 3.11); it only sets the scale of scaled times.
REFERENCE_S = 0.0012
# Sampling period of `Sampler`, and the fewest samples an operation is scaled by.
INTERVAL_S = 0.05
MIN_SAMPLES = 3


def work() -> int:
    total = Fraction(0)
    for k in range(1, 160):
        total += Fraction(k, k + 2) * Fraction(3, 2 * k + 1)
    vals = [1] + [0] * 300
    for e in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        for k in range(300, e - 1, -1):
            vals[k] += vals[k - e]
    counts: dict[tuple[int, int], int] = {}
    for i in range(2400):
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + i
    return total.numerator % 7 + vals[-1] % 7 + len(counts)


def seconds(at_least_s: float = 0.015) -> float:
    """Wall seconds of one run of the work, averaged over back-to-back runs
    that together take at least `at_least_s`."""
    runs, t0 = 0, time.perf_counter()
    while True:
        work()
        runs += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= at_least_s:
            return elapsed / runs


def scaled(wall_s: float, calibration_s: float) -> float:
    """`wall_s`, measured while the work took `calibration_s`, at reference speed."""
    return wall_s * REFERENCE_S / calibration_s


class Sampler:
    """Times one run of the work every INTERVAL_S of wall time while entered.

    The handler runs in the main thread between bytecodes, so it interrupts
    the program under test; `spent` is the wall time spent in it, which
    `clock()` leaves out.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (mid time, seconds)
        self.spent = 0.0
        self._previous = None
        self._sampling = False

    def _sample(self, signum, frame) -> None:
        if self._sampling:              # a signal during a stalled sample
            return                      # would count its time twice
        self._sampling = True
        t0 = time.perf_counter()
        work()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self.spent += time.perf_counter() - t0
        self._sampling = False

    def __enter__(self) -> "Sampler":
        self._sample(None, None)        # so that no interval lacks a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """perf_counter seconds without the time spent sampling. Retries when
        a sample was taken while it read the two clocks, so it never runs
        backwards."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def scaled(self, net_s: float, t0: float, t1: float) -> float:
        """`net_s` seconds of work done between perf_counter times t0 and t1,
        at reference speed: scaled by the mean speed of the samples taken in
        that interval, or of the MIN_SAMPLES nearest to it if fewer."""
        by_distance = sorted(self.samples, key=lambda s: max(t0 - s[0], s[0] - t1, 0.0))
        inside = sum(1 for mid, _ in self.samples if t0 <= mid <= t1)
        chosen = by_distance[:max(inside, MIN_SAMPLES)]
        return net_s * sum(REFERENCE_S / c for _, c in chosen) / len(chosen)
