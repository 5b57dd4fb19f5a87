"""Zipf-distributed key generation.

Zipfian distributions appear in Internet packet traces, city sizes, word
frequencies and advertisement clickstreams (paper section 1); the
evaluation uses TPC-H variants with 'zipfian distribution and skew factor
of 2'.  Key ``k`` (1-based rank) is drawn with probability proportional to
``1 / k**s``.
"""

from __future__ import annotations

import bisect
import itertools
from typing import List

from repro.util import make_rng


def zipf_frequencies(n_keys: int, s: float) -> List[float]:
    """Normalised zipf probabilities for ranks 1..n_keys (s=0 -> uniform)."""
    if n_keys <= 0:
        raise ValueError("n_keys must be positive")
    if s < 0:
        raise ValueError("skew parameter must be non-negative")
    weights = [1.0 / (rank ** s) for rank in range(1, n_keys + 1)]
    total = sum(weights)
    return [w / total for w in weights]


class ZipfGenerator:
    """Draws keys 0..n_keys-1 with zipf(s) probabilities.

    Uses inverse-CDF sampling over a precomputed cumulative table, so draws
    are O(log n) and fully reproducible given the seed.
    """

    def __init__(self, n_keys: int, s: float, seed: int = 0):
        self.n_keys = n_keys
        self.s = s
        frequencies = zipf_frequencies(n_keys, s)
        self._cumulative = list(itertools.accumulate(frequencies))
        self._cumulative[-1] = 1.0  # guard against rounding drift
        self._rng = make_rng(seed)
        self.top_frequency = frequencies[0]

    def draw(self) -> int:
        return bisect.bisect_left(self._cumulative, self._rng.random())

    def draws(self, n: int) -> List[int]:
        return [self.draw() for _ in range(n)]
