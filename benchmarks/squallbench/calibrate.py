"""Calibrated timing: seconds that mean the same on a noisy machine.

The sandbox's clock speed moves under the benchmark (a neighbour on the
sibling hyperthread, hypervisor steal): the raw wall time of one
``run_plan`` repetition ranged 130-320 ms inside a single minute while
the code did not change.  A fixed kernel run immediately before and
after every timed region moves with the machine, so timed work is
reported as ``wall * CALIB_REF_S / mean(adjacent kernel times)``:
*calibrated seconds*, the time the work would take on a machine that
runs the kernel in exactly ``CALIB_REF_S`` (about what this sandbox
needs when nothing disturbs it, so calibrated and wall seconds are of
one size).

The kernel and ``CALIB_REF_S`` are part of the metric definitions: they
are never edited, or every committed number loses its meaning.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

#: the kernel's nominal duration; calibrated seconds are wall seconds on
#: a machine that runs the kernel in exactly this time
CALIB_REF_S = 0.015

_SORT_INPUT = np.random.RandomState(1).randint(
    0, 1 << 40, 200_000).astype(np.int64)
_HEAP_ROWS = [(i, (i * 7919) % 1000) for i in range(60_000)]
_GATHER_FROM = np.random.RandomState(2).randint(
    0, 1 << 40, 2_000_000).astype(np.int64)
_GATHER_AT = np.random.RandomState(3).randint(0, 2_000_000, 150_000)


def kernel() -> float:
    """Run the calibration kernel once; returns its wall seconds.

    Four parts, one for each way the engine spends time, because a busy
    neighbour slows them by different factors: an interpreter loop over
    a dict that stays in L1, an interpreter loop chasing pointers
    through 60 000 row tuples (a ~7 MB heap, the row path), one NumPy
    sort of 200 000 int64 (L2, the columnar path) and one NumPy gather
    of 150 000 random elements out of 16 MB (L3 and beyond, the join
    indexes).  Scaling by the loop-and-sort half alone left the run
    medians of ``batch_filter_agg`` with a quartile spread of 5.7 %;
    the whole kernel, 2.4 % (``batch_join3`` 5.6 -> 3.9 %)."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(30_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    sums: dict = {}
    for value, key in _HEAP_ROWS:
        sums[key] = sums.get(key, 0) + value
    np.sort(_SORT_INPUT)
    _GATHER_FROM.take(_GATHER_AT).sum()
    return time.perf_counter() - start


#: the cold kernel's nominal duration (see :func:`cold_kernel`)
COLD_REF_S = 50e-6


def _cold_step(i: int) -> Callable[[int], int]:
    table = {k: (k, str(k)) for k in range(i, i + 16)}

    def step(x: int) -> int:
        entry = table.get(x % 16 + i)
        return (x + len(entry[1]) + i) & 1023

    return step


_COLD_CHAIN = [_cold_step(i) for i in range(200)]


def cold_kernel() -> float:
    """One pass over 200 small closures, each with its own table; returns
    its wall seconds.

    The paced phases calibrate with this kernel, run once per turn that
    delivered deltas -- at the cadence of the events, after the same
    idle gap.  An event at 1 000 events/s walks a long code path *once*
    and then nothing touches it for a millisecond, so its latency
    follows how cold the caches have gone in between (a neighbour on the
    sibling hyperthread moved the median event latency of workload 5
    between 0.10 and 0.30 ms while the hot kernel above moved by a
    third).  This kernel goes cold the same way: over 0.1 s segments its
    time correlated 0.93 with the segment's median latency, the hot
    kernel's 0.63."""
    start = time.perf_counter()
    x = 1
    for step in _COLD_CHAIN:
        x = step(x)
    return time.perf_counter() - start


#: a timed region under the benchmark's control is cut into slices of
#: about this long, each with its own pair of kernel runs
SLICE_S = 0.15


class Clock:
    """Stopwatch bracketing every timed region with the kernel.

    A region that runs longer than the machine holds its speed (the
    streaming repetitions take 0.4-0.8 s) calls :meth:`tick` from its
    own loop: the region is then timed as slices of ``SLICE_S``, the
    kernel runs between slices (its time is not counted), and every
    slice is scaled by the kernel runs on either side of it.
    """

    def __init__(self):
        self.kernel_times: List[float] = []
        self._slicing = False
        self._before = self._slice_start = self._wall = self._cal = 0.0

    def mark(self) -> float:
        """Run the kernel once and remember how long it took."""
        elapsed = kernel()
        self.kernel_times.append(elapsed)
        return elapsed

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from wall seconds to calibrated seconds for a region
        bracketed by kernel runs of ``before`` and ``after`` seconds."""
        return CALIB_REF_S / ((before + after) / 2.0)

    def _close_slice(self):
        wall = time.perf_counter() - self._slice_start
        after = self.mark()
        self._wall += wall
        self._cal += wall * self.scale(self._before, after)
        self._before = after

    def tick(self):
        """Called from inside a timed region wherever it may be cut."""
        if (self._slicing
                and time.perf_counter() - self._slice_start >= SLICE_S):
            self._close_slice()
            self._slice_start = time.perf_counter()

    def timed(self, fn: Callable[[], object], sliced: bool = True
              ) -> Tuple[object, float, float]:
        """Run ``fn``; returns (result, wall seconds, calibrated
        seconds).  ``sliced=False`` ignores ``tick`` calls."""
        self._wall = self._cal = 0.0
        self._before = self.mark()
        self._slicing = sliced
        self._slice_start = time.perf_counter()
        try:
            result = fn()
        finally:
            self._slicing = False
        self._close_slice()
        return result, self._wall, self._cal


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sample (q in [0, 1])."""
    ordered = sorted(values)
    return ordered[int(q * (len(ordered) - 1))]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a sample of one is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


#: a sample taken while the hypervisor kept more than this share of the
#: CPU time for other guests is set aside (see :func:`undisturbed`)
STEAL_LIMIT = 0.05


def read_steal() -> Optional[Tuple[int, int]]:
    """(steal jiffies, total jiffies) from /proc/stat, None if unreadable."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    ticks = [int(value) for value in fields[1:9]]
    return ticks[7], sum(ticks)


def steal_share(before: Optional[Tuple[int, int]],
                after: Optional[Tuple[int, int]]) -> float:
    """Share of all CPU time the hypervisor took between two readings."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def undisturbed(values: Sequence, steal: Sequence[float]) -> list:
    """The values sampled while steal stayed within ``STEAL_LIMIT``.

    Steal comes in episodes (one of them took 57 % of the CPU for a
    minute and slowed a three-process workload 8x, the kernel 5x): no
    kernel follows that, so such samples are left out of the medians --
    unless fewer than three or a quarter remain, when the episode *is*
    the run and every sample counts."""
    kept = [value for value, share in zip(values, steal)
            if share <= STEAL_LIMIT]
    return kept if len(kept) >= max(3, len(values) // 4) else list(values)
