"""Op times scaled to a fixed host speed.

The benchmark runs on a shared host. Its neighbours slow every instruction
it runs, by up to 1.7x and for seconds at a time, so the wall time of the
same work differs by 20-40% from one run to the next. To compare commits,
the benchmark therefore times a fixed pure-Python kernel (no package code)
between its operations, at least once per CADENCE_NS of operation time, and
scales the wall time of each operation by KERNEL_NOMINAL_NS over the mean
kernel time measured just before and just after it:

    scaled = wall * KERNEL_NOMINAL_NS / kernel time around the operation

A scaled time estimates the wall time on the reference host (Intel Xeon,
2 vCPUs, CPython 3.11) when nothing else runs on it. A change to the package
moves the wall time and not the kernel's, so it moves the scaled time in
proportion. In four runs of witness-large with one seed, while the host's
slowdown ranged from 1.27 to 1.69, unscaled ops/s ranged from 15.5 to 18.8
and scaled ops/s from 24.1 to 25.2.
"""

from __future__ import annotations

import gc
import math
import os
from fractions import Fraction
from time import perf_counter_ns

# the kernel's time on the reference host when it is quiet (least seen: 2.2 ms)
KERNEL_NOMINAL_NS = 2_200_000
# operation time after which the kernel is timed again
CADENCE_NS = 100_000_000
# untimed kernel runs before the first timed one
WARMUP = 3

_KERNEL_CHECK = None


def kernel() -> tuple[int, Fraction, int, int]:
    """Three kinds of interpreter work the package does, in about equal parts:
    small-integer and Fraction arithmetic with tuples and a dict (the
    polytope and certify code), arithmetic on integers of 60 to 90 bits (the
    Dirichlet search), and building and filtering short tuples of small
    integers (the lattice-point enumerator)."""
    s, f, seen = 0, Fraction(0), {}
    for i in range(1, 250):
        t = (i * 7919 % 104729, i % 13, i)
        s += t[0] * t[1] - t[2]
        f += Fraction(t[1], i)
        seen[t[0] & 255] = i
    m, x, big = (1 << 89) - 1, 10**18 + 9, 0
    for i in range(1, 700):
        x = (x * 1000000007 + i) % m
        q, r = divmod(x, 998244353 + i)
        big += (math.isqrt(x) & 0xFF) + (q * q * q > x * r)
    points = 0
    for i in range(160):
        pts = [(i % 7, j, i * j % 11) for j in range(20)]
        points += sum(a * b - c for a, b, c in pts if b & 1) + len({p[2] for p in pts})
    return s + len(seen), f, big, points


class RefClock:
    """Kernel timings interleaved with operations, and the scaling they give."""

    def __init__(self, cpus=None):
        """cpus: time the kernel on each of these CPUs and take the mean, for
        operations that run on several at once; None times it where it runs."""
        self.cpus = cpus
        self.kernel_ns: list[int] = []
        self.since_ns = 0
        for _ in range(WARMUP):  # the interpreter specialises the kernel's bytecode
            kernel()
        self.calibrate()

    def calibrate(self) -> None:
        if self.cpus is None:
            self.kernel_ns.append(self._time_kernel())
        else:
            home = os.sched_getaffinity(0)
            try:
                times = []
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    times.append(self._time_kernel())
            finally:
                os.sched_setaffinity(0, home)
            self.kernel_ns.append(sum(times) // len(times))
        self.since_ns = 0

    @staticmethod
    def _time_kernel() -> int:
        """The lesser of two kernel runs, with the cyclic GC off, so that
        neither an interrupt nor a collection of the workload's garbage is
        counted as host speed."""
        global _KERNEL_CHECK
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(2):
                t0 = perf_counter_ns()
                result = kernel()
                times.append(perf_counter_ns() - t0)
        finally:
            if enabled:
                gc.enable()
        if _KERNEL_CHECK is None:
            _KERNEL_CHECK = result
        elif result != _KERNEL_CHECK:
            raise RuntimeError("reference kernel gave a different result")
        return min(times)

    def mark(self) -> int:
        """The kernel timing that precedes an operation about to start."""
        return len(self.kernel_ns) - 1

    def spent(self, ns: int) -> None:
        """Count an operation's wall time; time the kernel once enough has passed."""
        self.since_ns += ns
        if self.since_ns >= CADENCE_NS:
            self.calibrate()

    def finish(self) -> None:
        """Time the kernel after the last operation, so that it has a bracket."""
        if self.since_ns:
            self.calibrate()

    def scale(self, mark: int) -> float:
        """Factor from wall time to reference time for an operation after mark."""
        after = self.kernel_ns[min(mark + 1, len(self.kernel_ns) - 1)]
        return 2 * KERNEL_NOMINAL_NS / (self.kernel_ns[mark] + after)

    def slowdown(self) -> float:
        """Median kernel time over the nominal one: how busy the host was."""
        times = sorted(self.kernel_ns)
        return times[len(times) // 2] / KERNEL_NOMINAL_NS
