"""Online statistics: heavy hitters and skew detection.

Squall collects statistics at run time and adjusts the operator's
partitioning scheme (paper section 5).  The Hybrid-Hypercube only needs to
know *whether* a join key is skew-free -- not the exact key frequencies --
which is exactly what :class:`SkewDetector` provides.  The offline chooser
(paper section 3.4) additionally uses the top-key frequency of a profiled
column for the ``(L - Lmf)/p + Lmf`` load estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple


class SpaceSaving:
    """SpaceSaving heavy-hitter sketch (Metwally et al.).

    Tracks approximate counts for the ``capacity`` most frequent keys with
    bounded overestimation error, using O(capacity) memory.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._counts: Dict[object, int] = {}
        self.total = 0

    def offer(self, key, weight: int = 1):
        self.total += weight
        if key in self._counts:
            self._counts[key] += weight
            return
        if len(self._counts) < self.capacity:
            self._counts[key] = weight
            return
        victim = min(self._counts, key=self._counts.__getitem__)
        self._counts[key] = self._counts.pop(victim) + weight

    def extend(self, keys: Iterable):
        for key in keys:
            self.offer(key)

    def top(self, n: int = 1) -> List[Tuple[object, int]]:
        """The n heaviest keys as (key, estimated count), heaviest first."""
        ranked = sorted(self._counts.items(), key=lambda kv: -kv[1])
        return ranked[:n]

    def estimate(self, key) -> int:
        return self._counts.get(key, 0)


@dataclass
class AttributeStats:
    """Summary statistics for one attribute of one relation."""

    count: int
    distinct: int
    top_key: object
    top_frequency: float  # fraction of tuples carrying the top key


class AttributeProfiler:
    """Streaming profiler producing :class:`AttributeStats`.

    Maintains an exact distinct set up to ``distinct_cap`` keys (beyond the
    cap the distinct count is a lower bound, which is all skew detection
    needs) and a SpaceSaving sketch for the top-key frequency.
    """

    def __init__(self, heavy_hitter_capacity: int = 64, distinct_cap: int = 100_000):
        self.count = 0
        self._sketch = SpaceSaving(heavy_hitter_capacity)
        self._distinct: set = set()
        self._distinct_cap = distinct_cap
        self._distinct_saturated = False

    def offer(self, value):
        self.count += 1
        self._sketch.offer(value)
        if not self._distinct_saturated:
            self._distinct.add(value)
            if len(self._distinct) >= self._distinct_cap:
                self._distinct_saturated = True

    def extend(self, values: Iterable):
        for value in values:
            self.offer(value)

    def stats(self) -> AttributeStats:
        if self.count == 0:
            return AttributeStats(count=0, distinct=0, top_key=None, top_frequency=0.0)
        top = self._sketch.top(1)
        top_key, top_count = top[0]
        return AttributeStats(
            count=self.count,
            distinct=len(self._distinct),
            top_key=top_key,
            top_frequency=top_count / self.count,
        )


class SkewDetector:
    """Decide whether an attribute is skewed for a given parallelism.

    The two rules from the paper (section 3.4):

    1. *Heavy key*: the most frequent key alone exceeds ``factor`` times the
       fair per-machine share ``1/p``, so hash partitioning would overload
       one machine.
    2. *Small domain*: fewer distinct keys than machines leaves some
       machines idle under hash partitioning.
    """

    def __init__(self, heavy_factor: float = 2.0):
        if heavy_factor <= 0:
            raise ValueError("heavy_factor must be positive")
        self.heavy_factor = heavy_factor

    def is_skewed(self, stats: AttributeStats, parallelism: int) -> bool:
        if parallelism <= 1:
            return False
        if stats.count == 0:
            return False
        if stats.distinct < parallelism:
            return True
        fair_share = 1.0 / parallelism
        return stats.top_frequency > self.heavy_factor * fair_share


def profile_column(values: Iterable, heavy_hitter_capacity: int = 64) -> AttributeStats:
    """One-shot profiling of a materialised column (planner/test helper)."""
    profiler = AttributeProfiler(heavy_hitter_capacity=heavy_hitter_capacity)
    profiler.extend(values)
    return profiler.stats()
