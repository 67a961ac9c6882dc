"""Machine-speed gauge: rescales measured intervals to a fixed speed.

On a small shared VM the host slows every vCPU by 1.5-2x in episodes that
last from a few seconds to half a minute, and in bursts of tens of
milliseconds, so the same run can read 40% slower a minute later. The
gauge times a fixed reference kernel (wide uint64 arithmetic, small matrix
products, seeding random generators and interpreter work: the mix the
workloads run) every PERIOD_S seconds at call boundaries, and right before
each short operation. The readings give the machine's speed over time,
and an interval's length is rescaled to a fixed reference speed, with the
readings' own time left out. The kernel is self-contained: nothing in it
depends on the program under test.
"""

import bisect
import time

import numpy as np

PERIOD_S = 0.15
# Rescaled times read as if the kernel's best-of-three took exactly this
# long: its fastest steady time on a shared 2-vCPU VM, where readings sat
# at 0.63-0.68 ms uncontended and 1.0-1.3 ms under contention. There a
# rescaled time reads close to uncontended seconds. A fixed reference
# keeps a run that is slow throughout from rescaling to its own slow speed.
REFERENCE_S = 0.65e-3


class SpeedGauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._u = rng.integers(0, 1 << 61, 4096, dtype=np.uint64)
        self._a = rng.random((64, 32))
        self._b = rng.random((32, 128))
        self.readings = []      # (start, end, best kernel seconds)
        self.enabled = True
        self._last = float("-inf")
        self._clock = None

    def _kernel(self):
        x, mask = self._u, np.uint64((1 << 61) - 1)
        for _ in range(16):
            x = (x * np.uint64(0x9E3779B1) + (x >> np.uint64(29))) & mask
        for _ in range(8):
            self._a @ self._b
        for i in range(8):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((7, i))))
            rng.integers(0, 1 << 61, size=64, dtype=np.uint64)
        s = 0
        for i in range(4000):
            s += i * i
        return s

    def read(self):
        start = time.perf_counter()
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        self._last = time.perf_counter()
        self.readings.append((start, self._last, best))
        self._clock = None

    def tick(self, force=False):
        """Read the gauge if PERIOD_S has passed since the last reading.

        force reads it now: before a short operation, so that contention
        bursts of tens of milliseconds are seen on both sides of it."""
        if self.enabled and (force or time.perf_counter() - self._last >= PERIOD_S):
            self.read()

    def _build_clock(self):
        """Segments and cumulative rescaled time of a piecewise-linear clock.

        Each reading's speed holds from the midpoint with the previous
        reading to the midpoint with the next; during a reading the clock
        stands still.
        """
        mids = [(s + e) / 2 for s, e, _ in self.readings]
        inf = float("inf")
        edges = [-inf] + [(a + b) / 2 for a, b in zip(mids, mids[1:])] + [inf]
        segments = []       # (start, end, rate)
        for i, (s, e, best) in enumerate(self.readings):
            lo, hi, rate = edges[i], edges[i + 1], REFERENCE_S / best
            segments += [(lo, s, rate), (s, e, 0.0), (e, hi, rate)]
        starts = [seg[0] for seg in segments]
        cum, acc = [], 0.0
        for lo, hi, rate in segments:
            cum.append(acc)
            if hi != float("inf") and lo != float("-inf"):
                acc += (hi - lo) * rate
        self._clock = (starts, segments, cum)

    def _at(self, t: float) -> float:
        starts, segments, cum = self._clock
        i = max(bisect.bisect_right(starts, t) - 1, 0)
        lo, hi, rate = segments[i]
        if lo == float("-inf"):
            # before the first reading: run backwards from its start
            return cum[i] - (hi - t) * rate
        return cum[i] + (t - lo) * rate

    def rescale(self, start: float, end: float) -> float:
        """Length of [start, end] at the reference speed."""
        if self._clock is None:
            self._build_clock()
        return self._at(end) - self._at(start)
